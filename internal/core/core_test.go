package core

import (
	"testing"
	"testing/quick"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
	"subgraphmr/internal/shares"
)

// enumerate compiles s's CQ set and runs Enumerate over it under opt.
func enumerate(t *testing.T, g *graph.Graph, s *sample.Sample, st Strategy, opt Options, sink func([]graph.Node) bool) (*Result, error) {
	t.Helper()
	qs, err := CompileCQs(s)
	if err != nil {
		return nil, err
	}
	return Enumerate(t.Context(), g, s, st, qs, opt, sink)
}

// collect runs Enumerate into a collecting sink and hands the instances
// back on the Result, the way the root package's Run does.
func collect(t *testing.T, g *graph.Graph, s *sample.Sample, st Strategy, opt Options) (*Result, error) {
	t.Helper()
	var instances [][]graph.Node
	res, err := enumerate(t, g, s, st, opt, func(phi []graph.Node) bool {
		instances = append(instances, phi)
		return true
	})
	if err == nil {
		res.Instances = instances
	}
	return res, err
}

func oracleKeys(g *graph.Graph, s *sample.Sample) map[string]bool {
	want := map[string]bool{}
	for _, phi := range serial.BruteForce(g, s) {
		want[s.Key(phi)] = true
	}
	return want
}

func checkExactlyOnce(t *testing.T, g *graph.Graph, s *sample.Sample, res *Result) {
	t.Helper()
	want := oracleKeys(g, s)
	got := map[string]bool{}
	for _, phi := range res.Instances {
		if !s.IsInstance(g, phi) {
			t.Fatalf("non-instance emitted: %v", phi)
		}
		k := s.Key(phi)
		if got[k] {
			t.Fatalf("instance %s emitted twice", k)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("got %d instances, oracle %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing instance %s", k)
		}
	}
}

func TestAllStrategiesMatchOracle(t *testing.T) {
	samples := []*sample.Sample{
		sample.SingleEdge(),
		sample.TwoPath(),
		sample.Triangle(),
		sample.Square(),
		sample.Lollipop(),
		sample.Cycle(5),
		sample.Complete(4),
		sample.Star(4),
		sample.Path(4),
	}
	graphs := []*graph.Graph{
		graph.Gnm(14, 38, 1),
		graph.Gnm(20, 45, 2),
		graph.CompleteGraph(8),
	}
	for _, strat := range []Strategy{BucketOriented, VariableOriented, CQOriented} {
		for _, g := range graphs {
			for _, s := range samples {
				res, err := collect(t, g, s, strat, Options{TargetReducers: 200, Seed: 5})
				if err != nil {
					t.Fatalf("%v %v: %v", strat, s, err)
				}
				checkExactlyOnce(t, g, s, res)
			}
		}
	}
}

// randomConnectedSample builds a connected sample on 2..7 nodes from raw
// bits: node i > 0 hangs off one earlier node, so the sample is connected,
// and extra selects further edges among the remaining pairs.
func randomConnectedSample(pRaw uint8, parents, extra uint32) *sample.Sample {
	p := int(pRaw)%6 + 2
	var edges [][2]int
	tree := map[[2]int]bool{}
	for i := 1; i < p; i++ {
		e := [2]int{int(parents>>(3*i)) % i, i}
		tree[e] = true
		edges = append(edges, e)
	}
	bit := 0
	for u := 0; u < p; u++ {
		for v := u + 1; v < p; v++ {
			if !tree[[2]int{u, v}] && extra>>bit&1 != 0 {
				edges = append(edges, [2]int{u, v})
			}
			bit++
		}
	}
	return sample.MustNew(p, edges)
}

// TestQuickOrbitCQsExactlyOnce: on random connected samples of at most 7
// nodes, the compiled CQ set — one CQ per orbit of acyclic orientations —
// finds every instance exactly once through each strategy's kernel.
func TestQuickOrbitCQsExactlyOnce(t *testing.T) {
	err := quick.Check(func(pRaw uint8, parents, extra uint32, seed uint16) bool {
		s := randomConnectedSample(pRaw, parents, extra)
		g := graph.Gnm(12, 30, int64(seed))
		want := oracleKeys(g, s)
		for _, st := range []Strategy{BucketOriented, VariableOriented, CQOriented} {
			got := map[string]bool{}
			dup := false
			_, err := enumerate(t, g, s, st, Options{TargetReducers: 64, Seed: uint64(seed)}, func(phi []graph.Node) bool {
				k := s.Key(phi)
				dup = dup || got[k] || !s.IsInstance(g, phi)
				got[k] = true
				return true
			})
			if err != nil || dup || len(got) != len(want) {
				t.Errorf("%v on %v (graph seed %d): %d instances, oracle %d, duplicate or non-instance %v, err %v",
					st, s, seed, len(got), len(want), dup, err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

// TestCompileCQsAllocations pins the compile cost Plan pays on every
// query, which the benchmark's allocs_per_query counts.
func TestCompileCQsAllocations(t *testing.T) {
	for _, tc := range []struct {
		s   *sample.Sample
		max float64
	}{{sample.Triangle(), 20}, {sample.Square(), 50}, {sample.Lollipop(), 80}} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := CompileCQs(tc.s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("CompileCQs(%v): %.0f allocations, want at most %.0f", tc.s, allocs, tc.max)
		}
	}
}

func TestDisconnectedSampleRejected(t *testing.T) {
	g := graph.CompleteGraph(5)
	s := sample.MustNew(3, [][2]int{{0, 1}}) // isolated third node
	if _, err := collect(t, g, s, BucketOriented, Options{}); err == nil {
		t.Error("disconnected sample should be rejected")
	}
}

// TestBucketOrientedCommMatchesTheorem42: each edge reaches exactly
// C(b+p-3, p-2) reducers and the useful reducers stay within C(b+p-1, p).
func TestBucketOrientedCommMatchesTheorem42(t *testing.T) {
	g := graph.Gnm(30, 140, 4)
	for _, tc := range []struct {
		s *sample.Sample
		b int
	}{
		{sample.Triangle(), 6},
		{sample.Square(), 4},
		{sample.Lollipop(), 5},
		{sample.Cycle(5), 3},
	} {
		res, err := collect(t, g, tc.s, BucketOriented, Options{Buckets: tc.b, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		p := tc.s.P()
		wantComm := int64(shares.BucketEdgeReplication(tc.b, p)) * int64(g.NumEdges())
		m := res.Jobs[0].Metrics
		if m.KeyValuePairs != wantComm {
			t.Errorf("%v b=%d: comm %d, want %d", tc.s, tc.b, m.KeyValuePairs, wantComm)
		}
		if max := int64(shares.UsefulReducers(tc.b, p)); m.DistinctKeys > max {
			t.Errorf("%v b=%d: %d reducers exceed C(b+p-1,p) = %d", tc.s, tc.b, m.DistinctKeys, max)
		}
	}
}

// TestVariableOrientedCommMatchesModel: measured communication equals the
// cost model evaluated at the integer shares, exactly.
func TestVariableOrientedCommMatchesModel(t *testing.T) {
	g := graph.Gnm(25, 90, 6)
	for _, s := range []*sample.Sample{sample.Triangle(), sample.Square(), sample.Lollipop()} {
		res, err := collect(t, g, s, VariableOriented, Options{TargetReducers: 500, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		job := res.Jobs[0]
		want := int64(job.PredictedCommPerEdge*float64(g.NumEdges()) + 0.5)
		if job.Metrics.KeyValuePairs != want {
			t.Errorf("%v: comm %d, predicted %d (shares %v)",
				s, job.Metrics.KeyValuePairs, want, job.Shares)
		}
		// Rounding keeps the reducer budget: Π intShares ≤ k. (The integer
		// cost may dip below the fractional optimum because the fractional
		// problem constrains the product to equal k exactly.)
		prod := 1
		for _, sh := range job.Shares {
			prod *= sh
		}
		if prod > 500 {
			t.Errorf("%v: integer share product %d exceeds k", s, prod)
		}
	}
}

// TestCQOrientedPerJobStats: one job per merged CQ, and the summed cost is
// at least the variable-oriented cost at the same budget (Theorem 4.4
// observed on measured data).
func TestCQOrientedPerJobStats(t *testing.T) {
	g := graph.Gnm(25, 90, 8)
	s := sample.Lollipop()
	k := 300
	cqRes, err := collect(t, g, s, CQOriented, Options{TargetReducers: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cqRes.Jobs) != 6 {
		t.Fatalf("lollipop should run 6 CQ jobs, got %d", len(cqRes.Jobs))
	}
	varRes, err := collect(t, g, s, VariableOriented, Options{TargetReducers: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if varRes.TotalComm() > cqRes.TotalComm() {
		t.Errorf("variable-oriented comm %d should not exceed cq-oriented total %d",
			varRes.TotalComm(), cqRes.TotalComm())
	}
}

// TestConvertibilityGeneral is Section 6 as an assertion: for every core
// strategy, total reducer work (candidates the kernel examined) stays within
// a constant of the serial algorithm's work as the reducer budget grows.
// Each bound is the largest ratio measured over the three budgets plus a
// quarter, so a kernel change that re-inflates candidate generation — or
// stops pruning by ownership while binding, which multiplied these ratios
// by 2–12 — fails here rather than showing up as a slow benchmark.
func TestConvertibilityGeneral(t *testing.T) {
	g := graph.Gnm(120, 700, 10)
	serialWork := func(s *sample.Sample) int64 {
		if s.P() == 3 {
			return serial.Triangles(g, func(_, _, _ graph.Node) {})
		}
		_, work, err := serial.EnumerateBoundedDegree(g, s)
		if err != nil {
			t.Fatal(err)
		}
		return work
	}
	for _, tc := range []struct {
		s      *sample.Sample
		bounds map[Strategy]float64
	}{
		{sample.Triangle(), map[Strategy]float64{BucketOriented: 3.75, VariableOriented: 4.7, CQOriented: 4.7}},
		{sample.Square(), map[Strategy]float64{BucketOriented: 0.27, VariableOriented: 0.74, CQOriented: 0.46}},
		{sample.Lollipop(), map[Strategy]float64{BucketOriented: 2.8, VariableOriented: 1.73, CQOriented: 1.33}},
	} {
		base := serialWork(tc.s)
		for strat, bound := range tc.bounds {
			for _, k := range []int{20, 60, 200} {
				res, err := enumerate(t, g, tc.s, strat, Options{TargetReducers: k, Seed: 2}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ratio := float64(res.TotalReducerWork()) / float64(base); ratio > bound {
					t.Errorf("%v %v k=%d: reducer work %d is %.2f× serial work %d, bound %.2f",
						tc.s, strat, k, res.TotalReducerWork(), ratio, base, bound)
				}
			}
		}
	}
}

func TestDefaultBucketSelection(t *testing.T) {
	// With TargetReducers = 220 and p = 3, the largest b with
	// C(b+2,3) ≤ 220 is 10 (Fig. 2's Section 2.3 row); a budget of one
	// reducer leaves one bucket.
	g := graph.Gnm(12, 30, 1)
	for _, tc := range []struct {
		s    *sample.Sample
		k, b int
	}{{sample.Triangle(), 220, 10}, {sample.Square(), 1, 1}} {
		res, err := collect(t, g, tc.s, BucketOriented, Options{TargetReducers: tc.k})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Jobs[0].Shares[0]; got != tc.b {
			t.Errorf("%v at k=%d ran with b=%d, want %d", tc.s, tc.k, got, tc.b)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := graph.Gnm(15, 40, 1)
	res, err := collect(t, g, sample.Square(), BucketOriented, Options{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	job := res.Jobs[0]
	if len(job.CQs) != 3 {
		t.Errorf("square should evaluate 3 CQs, got %v", job.CQs)
	}
	if job.Metrics.DistinctKeys == 0 || job.Metrics.KeyValuePairs == 0 {
		t.Error("metrics not populated")
	}
	if job.Label == "" || len(job.Shares) != 4 {
		t.Errorf("job metadata missing: %+v", job)
	}
}

// TestCountOnly: without a sink the reducers count — the exact total, no
// instance delivered, same communication — across all three strategies.
func TestCountOnly(t *testing.T) {
	g := graph.Gnm(20, 60, 3)
	for _, strat := range []Strategy{BucketOriented, VariableOriented, CQOriented} {
		for _, s := range []*sample.Sample{sample.Triangle(), sample.Lollipop()} {
			full, err := collect(t, g, s, strat, Options{TargetReducers: 100, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			counted, err := enumerate(t, g, s, strat, Options{TargetReducers: 100, Seed: 4}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if counted.Count != full.Count || counted.Count != int64(len(full.Instances)) {
				t.Errorf("%v %v: count-only %d vs full %d", strat, s, counted.Count, full.Count)
			}
			if n := counted.Jobs[0].Metrics.Outputs; n != 0 {
				t.Errorf("%v: count-only run emitted %d instances from its reducers", strat, n)
			}
			if counted.TotalComm() != full.TotalComm() {
				t.Errorf("%v: count-only changed communication", strat)
			}
		}
	}
}

// TestShareOverflowRejected: a reducer budget so large that one variable's
// share exceeds the 255-bucket encoding limit is rejected cleanly.
func TestShareOverflowRejected(t *testing.T) {
	g := graph.Gnm(10, 20, 1)
	// Single-edge sample: one variable absorbs the whole budget.
	if _, err := collect(t, g, sample.SingleEdge(), VariableOriented, Options{TargetReducers: 100000}); err == nil {
		t.Error("share > 255 should be rejected")
	}
	if _, err := collect(t, g, sample.Triangle(), BucketOriented, Options{Buckets: 300}); err == nil {
		t.Error("buckets > 255 should be rejected")
	}
}

// TestEmptyDataGraph: every strategy handles a graph with no edges.
func TestEmptyDataGraph(t *testing.T) {
	g := graph.FromEdges(6, nil)
	for _, strat := range []Strategy{BucketOriented, VariableOriented, CQOriented} {
		res, err := collect(t, g, sample.Triangle(), strat, Options{TargetReducers: 16})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Count != 0 || res.TotalComm() != 0 {
			t.Errorf("%v: empty graph produced count=%d comm=%d", strat, res.Count, res.TotalComm())
		}
	}
}

// TestEdgeSampleP2: the p = 2 mapper special case (no completion buckets).
func TestEdgeSampleP2(t *testing.T) {
	g := graph.Gnm(12, 30, 2)
	res, err := collect(t, g, sample.SingleEdge(), BucketOriented, Options{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != g.NumEdges() {
		t.Errorf("edge sample found %d, want m=%d", len(res.Instances), g.NumEdges())
	}
	// Each edge ships to exactly one reducer: comm = m.
	if res.TotalComm() != int64(g.NumEdges()) {
		t.Errorf("p=2 comm = %d, want %d", res.TotalComm(), g.NumEdges())
	}
}

// TestUnknownStrategyRejected covers the default switch branch.
func TestUnknownStrategyRejected(t *testing.T) {
	g := graph.Gnm(5, 8, 1)
	if _, err := collect(t, g, sample.Triangle(), Strategy(99), Options{}); err == nil {
		t.Error("unknown strategy should be rejected")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy should still print")
	}
	for _, s := range []Strategy{BucketOriented, VariableOriented, CQOriented} {
		if s.String() == "" {
			t.Error("strategy name empty")
		}
	}
}

// TestNoReducerBudgetIsAnError pins that core has no default k: the planner
// resolves it, and a job that needs it and finds neither k nor (for the
// bucket-style jobs) b set fails instead of guessing one.
func TestNoReducerBudgetIsAnError(t *testing.T) {
	g := graph.Gnm(30, 80, 1)
	s := sample.Triangle()
	for _, st := range []Strategy{BucketOriented, VariableOriented, CQOriented} {
		if _, err := collect(t, g, s, st, Options{}); err == nil {
			t.Errorf("%v with neither k nor b: no error", st)
		}
	}
	if _, err := EnumerateDecomposed(t.Context(), g, sample.Square(), Options{}, nil); err == nil {
		t.Error("decomposed with neither k nor b: no error")
	}
	// b alone serves a bucket-style job; a share job needs k.
	want := len(serial.BruteForce(g, s))
	if res, err := collect(t, g, s, BucketOriented, Options{Buckets: 3}); err != nil || len(res.Instances) != want {
		t.Errorf("bucket-oriented at b=3 without k: %v instances, err %v; oracle %d", res, err, want)
	}
	if _, err := collect(t, g, s, VariableOriented, Options{Buckets: 3}); err == nil {
		t.Error("variable-oriented with b but no k: no error")
	}
}
