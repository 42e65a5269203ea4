package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"subgraphmr/internal/core"
	"subgraphmr/internal/cq"
	"subgraphmr/internal/directed"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/multijoin"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/shares"
	"subgraphmr/internal/triangle"
)

// modes runs every check twice: fully in memory, and under a memory budget
// tiny enough that each reduce worker must spill — the differential answer
// has to be identical either way.
var modes = []struct {
	name   string
	budget int64
}{
	{"in-memory", 0},
	{"spill", 2048},
}

// wantSpill asserts the spill mode actually exercised the external shuffle.
func wantSpill(t *testing.T, budget int64, m mapreduce.Metrics) {
	t.Helper()
	if budget > 0 && m.SpilledPairs == 0 {
		t.Errorf("budget %d never spilled (metrics %+v)", budget, m)
	}
	if budget == 0 && m.SpilledPairs != 0 {
		t.Errorf("unbudgeted run spilled: %+v", m)
	}
}

func TestEnumerateAllStrategies(t *testing.T) {
	for gname, g := range Graphs(7) {
		for _, s := range Samples() {
			for _, strat := range []core.Strategy{core.BucketOriented, core.VariableOriented, core.CQOriented} {
				for _, mode := range modes {
					name := fmt.Sprintf("%s/%v/%v/%s", gname, s, strat, mode.name)
					t.Run(name, func(t *testing.T) {
						m, err := CheckEnumerate(t.Context(), g, s, strat, core.Options{
							TargetReducers: 64,
							Seed:           11,
							Engine:         mapreduce.Config{Parallelism: 2, Partitions: 2, MemoryBudget: mode.budget},
						})
						if err != nil {
							t.Fatal(err)
						}
						wantSpill(t, mode.budget, m)
					})
				}
			}
		}
	}
}

func TestEnumerateCycleCQs(t *testing.T) {
	g := Graphs(3)["gnm"]
	for _, mode := range modes {
		m, err := CheckEnumerate(t.Context(), g, sample.Named("c5"), core.BucketOriented, core.Options{
			UseCycleCQs:    true,
			TargetReducers: 64,
			Engine:         mapreduce.Config{Parallelism: 2, Partitions: 2, MemoryBudget: mode.budget},
		})
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		wantSpill(t, mode.budget, m)
	}
}

func TestDecomposed(t *testing.T) {
	for gname, g := range Graphs(9) {
		for _, s := range Samples() {
			if s.P() < 3 {
				continue // decomposition needs at least one non-edge part
			}
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/%v/%s", gname, s, mode.name), func(t *testing.T) {
					m, err := CheckDecomposed(t.Context(), g, s, core.Options{
						TargetReducers: 64,
						Seed:           5,
						Engine:         mapreduce.Config{Parallelism: 2, Partitions: 2, MemoryBudget: mode.budget},
					})
					if err != nil {
						t.Fatal(err)
					}
					wantSpill(t, mode.budget, m)
				})
			}
		}
	}
}

func TestTwoRoundCascade(t *testing.T) {
	for gname, g := range Graphs(13) {
		for _, mode := range modes {
			t.Run(gname+"/"+mode.name, func(t *testing.T) {
				m, err := CheckTwoRound(t.Context(), g, mapreduce.Config{
					Parallelism: 2, Partitions: 2, MemoryBudget: mode.budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				wantSpill(t, mode.budget, m)
			})
		}
	}
}

func TestTriangleAlgorithms(t *testing.T) {
	for gname, g := range Graphs(17) {
		for _, algo := range triangle.Algos {
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/%s/%s", gname, algo.Name, mode.name), func(t *testing.T) {
					m, err := CheckTriangle(t.Context(), g, algo, 4, 3, mapreduce.Config{
						Parallelism: 2, Partitions: 2, MemoryBudget: mode.budget,
					})
					if err != nil {
						t.Fatal(err)
					}
					wantSpill(t, mode.budget, m)
				})
			}
		}
	}
}

func TestMultijoinCycleChain(t *testing.T) {
	for _, p := range []int{3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(p) * 31))
		rels := make([]*multijoin.Relation, p)
		for i := range rels {
			tuples := make([]multijoin.Tuple, 150)
			for j := range tuples {
				tuples[j] = multijoin.Tuple{A: rng.Int63n(12), B: rng.Int63n(12)}
			}
			rels[i] = multijoin.NewRelation(tuples)
		}
		for _, mode := range modes {
			t.Run(fmt.Sprintf("p%d/%s", p, mode.name), func(t *testing.T) {
				m, err := CheckCycleChain(t.Context(), rels, mapreduce.Config{
					Parallelism: 2, Partitions: 2, MemoryBudget: mode.budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				wantSpill(t, mode.budget, m)
			})
		}
	}
}

func TestDirectedPatterns(t *testing.T) {
	g := directed.RandomDiGraph(28, 110, 2, 23)
	patterns := map[string]*directed.DiPattern{
		"cycle3": directed.DirectedCycle(3, 0),
		"path3":  directed.DirectedPath(3, 0),
		"fanin3": directed.FanIn(3, 0),
	}
	for pname, pt := range patterns {
		for _, mode := range modes {
			t.Run(pname+"/"+mode.name, func(t *testing.T) {
				m, err := CheckDirected(t.Context(), g, pt, core.Options{
					Buckets: 4, Engine: mapreduce.Config{Parallelism: 2, Partitions: 2, MemoryBudget: mode.budget},
				})
				if err != nil {
					t.Fatal(err)
				}
				wantSpill(t, mode.budget, m)
			})
		}
	}
}

// TestOneByteBudget is the stress extreme: a budget of one byte spills
// after every single pair, driving the run count through the merge fan-in
// compaction, and must still agree with the oracle.
func TestOneByteBudget(t *testing.T) {
	g := Graphs(29)["gnm"]
	m, err := CheckEnumerate(t.Context(), g, sample.Named("triangle"), core.BucketOriented, core.Options{
		TargetReducers: 64,
		Engine:         mapreduce.Config{Parallelism: 2, Partitions: 2, MemoryBudget: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.SpilledPairs == 0 || m.SpillFiles < 4 {
		t.Errorf("one-byte budget should spill per pair, metrics %+v", m)
	}
}

// TestProbeMatchesRun pins "same loads" for the seven single-round
// strategies: the load probe the adaptive planner would consult and the job
// itself are built from one mapper, so the probe's pairs, keys and hottest
// reducer are the run's to the last pair — and for the strategies whose
// communication is a closed form in b, that form times m.
func TestProbeMatchesRun(t *testing.T) {
	const (
		seed = 11
		b    = 4
		k    = 64
	)
	cfg := mapreduce.Config{Parallelism: 2, Partitions: 2}
	same := func(t *testing.T, ls mapreduce.LoadStats, err error, m mapreduce.Metrics) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if ls.Pairs != m.KeyValuePairs || ls.Keys != m.DistinctKeys || ls.MaxLoad != m.MaxReducerInput {
			t.Errorf("probe saw %+v, the run shipped pairs=%d keys=%d maxload=%d",
				ls, m.KeyValuePairs, m.DistinctKeys, m.MaxReducerInput)
		}
	}
	closed := func(t *testing.T, perEdge float64, g *graph.Graph, m mapreduce.Metrics) {
		t.Helper()
		if want := int64(perEdge) * int64(g.NumEdges()); m.KeyValuePairs != want {
			t.Errorf("shipped %d pairs, closed form %v × m = %d", m.KeyValuePairs, perEdge, want)
		}
	}
	for gname, g := range Graphs(7) {
		for _, s := range []*sample.Sample{sample.Triangle(), sample.Square(), sample.Lollipop()} {
			p := s.P()
			opt := core.Options{Buckets: b, TargetReducers: k, Seed: seed, Engine: mapreduce.Config{Parallelism: 2, Partitions: 2}}
			qs := cq.MergeByOrientation(cq.GenerateForSample(s))
			run := func(t *testing.T, st core.Strategy) *core.Result {
				res, err := core.Enumerate(t.Context(), g, s, st, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			t.Run(fmt.Sprintf("%s/%v/bucket-oriented", gname, s), func(t *testing.T) {
				m := run(t, core.BucketOriented).Jobs[0].Metrics
				ls, err := core.ProbeBucketLoads(g, p, b, seed, cfg)
				same(t, ls, err, m)
				closed(t, shares.BucketEdgeReplication(b, p), g, m)
			})
			t.Run(fmt.Sprintf("%s/%v/decomposed", gname, s), func(t *testing.T) {
				res, err := core.EnumerateDecomposed(t.Context(), g, s, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				ls, err := core.ProbeBucketLoads(g, p, b, seed, cfg)
				same(t, ls, err, res.Jobs[0].Metrics)
				closed(t, shares.BucketEdgeReplication(b, p), g, res.Jobs[0].Metrics)
			})
			t.Run(fmt.Sprintf("%s/%v/variable-oriented", gname, s), func(t *testing.T) {
				job := run(t, core.VariableOriented).Jobs[0]
				ls, err := core.ProbeVariableLoads(g, qs, job.Shares, seed, cfg)
				same(t, ls, err, job.Metrics)
			})
			t.Run(fmt.Sprintf("%s/%v/cq-oriented", gname, s), func(t *testing.T) {
				for j, job := range run(t, core.CQOriented).Jobs {
					ls, err := core.ProbeCQLoads(g, qs[j], job.Shares, seed, cfg)
					same(t, ls, err, job.Metrics)
				}
			})
		}
		for _, algo := range triangle.Algos {
			t.Run(fmt.Sprintf("%s/tri-%s", gname, algo.Name), func(t *testing.T) {
				m, err := algo.Run(t.Context(), g, b, seed, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				ls, err := algo.ProbeLoads(g, b, seed, cfg)
				same(t, ls, err, m)
				if algo.Name != triangle.Partition.Name { // Partition's form is an expectation
					closed(t, algo.CommPerEdge(b), g, m)
				}
			})
		}
	}
}
