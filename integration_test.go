package subgraphmr

import (
	"fmt"
	"sort"
	"testing"

	"subgraphmr/internal/serial"
)

// TestIntegrationAllPathsAgree cross-validates every enumeration path in
// the library — three map-reduce strategies, the Section 5 cycle CQs,
// the two serial algorithms of Section 7, and the brute-force oracle — on
// the same graphs and samples. Every path must produce the identical
// instance set, each instance exactly once.
func TestIntegrationAllPathsAgree(t *testing.T) {
	type path struct {
		name string
		run  func(g *Graph, s *Sample) ([][]Node, error)
	}
	mr := func(st PlanStrategy) func(g *Graph, s *Sample) ([][]Node, error) {
		return func(g *Graph, s *Sample) ([][]Node, error) {
			plan, err := Plan(g, s, WithStrategy(st), WithTargetReducers(150), WithSeed(9))
			if err != nil {
				return nil, err
			}
			res, err := Run(t.Context(), plan)
			if err != nil {
				return nil, err
			}
			return res.Instances, nil
		}
	}
	paths := []path{
		{"bucket-oriented", mr(StrategyBucketOriented)},
		{"variable-oriented", mr(StrategyVariableOriented)},
		{"cq-oriented", mr(StrategyCQOriented)},
		{"serial-decomposition", func(g *Graph, s *Sample) ([][]Node, error) {
			out, _ := EnumerateByDecomposition(g, s)
			return out, nil
		}},
		{"serial-bounded-degree", func(g *Graph, s *Sample) ([][]Node, error) {
			out, _, err := serial.EnumerateBoundedDegree(g, s)
			return out, err
		}},
	}
	samples := []*Sample{Triangle(), Square(), Lollipop(), CycleSample(5), CliqueSample(4)}
	graphs := []*Graph{
		Gnm(18, 50, 21),
		PowerLaw(40, 5, 2.3, 4),
		GridGraph(4, 5),
	}
	for _, g := range graphs {
		for _, s := range samples {
			want := keySetOf(s, BruteForce(g, s))
			for _, p := range paths {
				got, err := p.run(g, s)
				if err != nil {
					t.Fatalf("%s on %v: %v", p.name, s, err)
				}
				gotSet := map[string]bool{}
				for _, phi := range got {
					k := s.Key(phi)
					if gotSet[k] {
						t.Fatalf("%s on %v: duplicate %v", p.name, s, phi)
					}
					gotSet[k] = true
				}
				if len(gotSet) != len(want) {
					t.Fatalf("%s on %v (n=%d m=%d): %d instances, oracle %d",
						p.name, s, g.NumNodes(), g.NumEdges(), len(gotSet), len(want))
				}
				for k := range want {
					if !gotSet[k] {
						t.Fatalf("%s on %v: missing %s", p.name, s, k)
					}
				}
			}
		}
	}
}

// TestIntegrationCycleCQsAgree: for cycles, the Section 5 CQ route agrees
// with the Section 3 route across strategies.
func TestIntegrationCycleCQsAgree(t *testing.T) {
	g := Gnm(20, 55, 8)
	for _, p := range []int{4, 5, 6, 7} {
		s := CycleSample(p)
		var counts []int
		for _, useCycle := range []bool{false, true} {
			opts := []Option{WithStrategy(StrategyBucketOriented), WithBuckets(3), WithSeed(2)}
			if useCycle {
				opts = append(opts, WithCycleCQs())
			}
			counts = append(counts, len(planRun(t, g, s, opts...).Instances))
		}
		if counts[0] != counts[1] {
			t.Errorf("p=%d: general %d vs cycle CQs %d", p, counts[0], counts[1])
		}
		if int64(counts[0]) != int64(len(BruteForce(g, s))) {
			t.Errorf("p=%d: %d cycles, oracle %d", p, counts[0], len(BruteForce(g, s)))
		}
	}
}

// TestIntegrationTriangleEveryWay: every triangle path in the repository —
// each row of the strategy table (the three Section 2 algorithms, the
// generic core engine four ways, the cascade) at b = 5 on a skewed graph —
// agrees with the serial baseline.
func TestIntegrationTriangleEveryWay(t *testing.T) {
	g := PowerLaw(300, 8, 2.2, 6)
	want := CountTriangles(g)
	for _, def := range strategies {
		res := planRun(t, g, Triangle(), WithStrategy(def.id), WithTargetReducers(64), WithBuckets(5), WithSeed(3))
		if res.Count != want || int64(len(res.Instances)) != want {
			t.Errorf("%v: count %d, %d instances, want %d", def.id, res.Count, len(res.Instances), want)
		}
	}
}

// TestIntegrationDeterministicAcrossRuns: the same options yield the same
// metrics and instances on repeated runs (hash seeds are deterministic).
func TestIntegrationDeterministicAcrossRuns(t *testing.T) {
	g := Gnm(25, 70, 12)
	run := func() (string, int64) {
		res := planRun(t, g, Lollipop(), WithStrategy(StrategyVariableOriented), WithTargetReducers(64), WithSeed(77))
		keys := make([]string, 0, len(res.Instances))
		for _, phi := range res.Instances {
			keys = append(keys, fmt.Sprint(phi))
		}
		sort.Strings(keys)
		return fmt.Sprint(keys), res.TotalComm()
	}
	k1, c1 := run()
	k2, c2 := run()
	if k1 != k2 || c1 != c2 {
		t.Error("repeated runs with the same seed differ")
	}
}

// mustPlan plans s in g under opts.
func mustPlan(t testing.TB, g *Graph, s *Sample, opts ...Option) *QueryPlan {
	t.Helper()
	plan, err := Plan(g, s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// mustRun runs plan to a materialized Result.
func mustRun(t testing.TB, plan *QueryPlan) *Result {
	t.Helper()
	res, err := Run(t.Context(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// planRun is mustRun of mustPlan.
func planRun(t testing.TB, g *Graph, s *Sample, opts ...Option) *Result {
	t.Helper()
	return mustRun(t, mustPlan(t, g, s, opts...))
}

func keySetOf(s *Sample, assignments [][]Node) map[string]bool {
	set := make(map[string]bool, len(assignments))
	for _, phi := range assignments {
		set[s.Key(phi)] = true
	}
	return set
}
