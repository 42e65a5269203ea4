package tworound

import (
	"runtime"
	"testing"

	"subgraphmr/internal/core"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
)

// cascade runs the two rounds without a sink.
func cascade(t *testing.T, g *graph.Graph) Result {
	t.Helper()
	res, err := Triangles(t.Context(), g, mapreduce.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// total sums the metrics of both rounds.
func total(res Result) mapreduce.Metrics {
	var m mapreduce.Metrics
	for _, r := range res.Rounds {
		m.Add(r.Metrics)
	}
	return m
}

func TestCascadeMatchesSerial(t *testing.T) {
	tri := sample.Triangle()
	for seed := int64(0); seed < 3; seed++ {
		g := graph.Gnm(40, 160, seed)
		want := map[string]bool{}
		serial.Triangles(g, func(a, b, c graph.Node) {
			want[tri.Key([]graph.Node{a, b, c})] = true
		})
		got := map[string]bool{}
		res, err := Triangles(t.Context(), g, mapreduce.Config{}, func(tr [3]graph.Node) bool {
			k := tri.Key([]graph.Node{tr[0], tr[1], tr[2]})
			if got[k] {
				t.Errorf("seed %d: duplicate triangle %v", seed, tr)
			}
			got[k] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: cascade found %d, serial %d", seed, len(got), len(want))
		}
		// Count is the accepted deliveries, with a sink or without one.
		got2 := res.Rounds[1].Metrics.Outputs
		if n := cascade(t, g).Rounds[1].Metrics.Outputs; got2 != int64(len(want)) || n != int64(len(want)) {
			t.Fatalf("seed %d: Outputs %d with a sink, %d without, serial %d", seed, got2, n, len(want))
		}
	}
}

func TestCascadeCommunicationAccounting(t *testing.T) {
	g := graph.Gnm(50, 220, 4)
	res := cascade(t, g)
	m := int64(g.NumEdges())
	round1, round2 := res.Rounds[0].Metrics, res.Rounds[1].Metrics
	// Round 1 ships every edge twice.
	if round1.KeyValuePairs != 2*m {
		t.Errorf("round 1 comm = %d, want %d", round1.KeyValuePairs, 2*m)
	}
	// Round 1 outputs exactly the ordered wedges.
	if res.Wedges != WedgeCount(g) {
		t.Errorf("wedges = %d, want %d", res.Wedges, WedgeCount(g))
	}
	// Round 2 ships every wedge and every edge once.
	if round2.KeyValuePairs != res.Wedges+m {
		t.Errorf("round 2 comm = %d, want %d", round2.KeyValuePairs, res.Wedges+m)
	}
	if total := total(res).KeyValuePairs; total != 3*m+res.Wedges {
		t.Errorf("total = %d, want %d", total, 3*m+res.Wedges)
	}
}

// TestCascadeLosesOnSkew demonstrates the paper's introduction claim: on a
// skewed graph the cascade's intermediate wedge relation dwarfs the
// one-round algorithm's communication. (A hub whose neighbors straddle the
// node order contributes lo·hi ≈ deg²/4 ordered wedges.)
func TestCascadeLosesOnSkew(t *testing.T) {
	base := graph.Gnm(1200, 2000, 3)
	b := graph.NewBuilder(1200)
	for _, e := range base.Edges() {
		b.AddEdge(e.U, e.V)
	}
	hub := graph.Node(600)
	for v := graph.Node(0); v < 1200; v++ {
		if v != hub {
			b.AddEdge(hub, v)
		}
	}
	g := b.Graph()
	two := cascade(t, g)
	// The one-round job is Section 2.3's: core's bucket-oriented at p = 3.
	opt := core.Options{Buckets: 10, Seed: 7}
	qs, err := core.CompileCQs(sample.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Enumerate(t.Context(), g, sample.Triangle(), core.BucketOriented, qs, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	oneRound := res.Jobs[0].Metrics
	if n := two.Rounds[1].Metrics.Outputs; n != res.Count {
		t.Fatalf("counts differ: cascade %d, one-round %d", n, res.Count)
	}
	twoComm := total(two).KeyValuePairs
	if twoComm <= oneRound.KeyValuePairs {
		t.Errorf("expected cascade comm %d to exceed one-round comm %d on a skewed graph",
			twoComm, oneRound.KeyValuePairs)
	}
	t.Logf("cascade comm=%d (wedges %d) vs one-round b=10 comm=%d",
		twoComm, two.Wedges, oneRound.KeyValuePairs)
}

func TestWedgeCountStar(t *testing.T) {
	// Star with hub 0: hub's neighbors are all larger ids, so ordered
	// wedges through the hub number 0·(n-1) = 0; each leaf has one smaller
	// neighbor... leaves have degree 1 → no wedges at all.
	if got := WedgeCount(graph.StarGraph(10)); got != 0 {
		t.Errorf("star ordered wedges = %d, want 0", got)
	}
	// Path 0-1-2: middle node 1 has one smaller (0) and one larger (2).
	if got := WedgeCount(graph.PathGraph(3)); got != 1 {
		t.Errorf("path wedges = %d, want 1", got)
	}
}

func TestCascadeEmptyGraph(t *testing.T) {
	g := graph.FromEdges(5, nil)
	res := cascade(t, g)
	if n, comm := res.Rounds[1].Metrics.Outputs, total(res).KeyValuePairs; n != 0 || comm != 0 {
		t.Errorf("empty graph: %d triangles, %d pairs", n, comm)
	}
}

// TestWedgeJoinAllocations: a round-1 reducer call against a warmed worker
// slot allocates nothing — both sides reuse the slot's buffers — and still
// emits the full product of the two sides.
func TestWedgeJoinAllocations(t *testing.T) {
	roles := []role{{Other: 1, Left: true}, {Other: 9}, {Other: 2, Left: true}, {Other: 8}, {Other: 7}}
	ctx := &mapreduce.Context{}
	var wedges int
	emit := func(wedge) { wedges++ }
	joinWedges(ctx, 5, roles, emit) // warm the slot
	if wedges != 6 {
		t.Fatalf("emitted %d wedges, want 2×3", wedges)
	}
	if allocs := testing.AllocsPerRun(100, func() { joinWedges(ctx, 5, roles, emit) }); allocs != 0 {
		t.Fatalf("warmed round-1 reducer call allocates: %v allocs/run", allocs)
	}
}

// TestCascadePipeMetrics pins the per-round metrics of the piped cascade
// on Gnm(10000, 100000, 7919), in memory and under a 1 MiB budget: they are
// what the two rounds reported when round 2's input was materialised.
// Round 1 ships 2m pairs to the non-isolated nodes and outputs the W
// ordered wedges; round 2 ships W + m pairs.
func TestCascadePipeMetrics(t *testing.T) {
	g := graph.Gnm(10000, 100000, 7919)
	want := [2]mapreduce.Metrics{
		{KeyValuePairs: 200000, DistinctKeys: 10000, Outputs: 667826},
		{KeyValuePairs: 767826, DistinctKeys: 759836, Outputs: 1342},
	}
	for _, budget := range []int64{0, 1 << 20} {
		cfg := mapreduce.Config{Parallelism: 2, Partitions: 2, MemoryBudget: budget, SpillDir: t.TempDir()}
		res, err := Triangles(t.Context(), g, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res.Rounds {
			got := mapreduce.Metrics{KeyValuePairs: r.Metrics.KeyValuePairs, DistinctKeys: r.Metrics.DistinctKeys, Outputs: r.Metrics.Outputs}
			if got != want[i] {
				t.Errorf("budget %d, round %d: pairs, keys, outputs %d, %d, %d; want %d, %d, %d", budget, i+1,
					got.KeyValuePairs, got.DistinctKeys, got.Outputs, want[i].KeyValuePairs, want[i].DistinctKeys, want[i].Outputs)
			}
		}
		if res.Wedges != WedgeCount(g) {
			t.Errorf("budget %d: %d wedges, WedgeCount %d", budget, res.Wedges, WedgeCount(g))
		}
		if spilled := total(res).SpillFiles > 0; spilled != (budget > 0) {
			t.Errorf("budget %d: %d spill files", budget, total(res).SpillFiles)
		}
	}
}

// TestCascadeBudgetBoundsAllocation: under a memory budget the wedge
// relation exists only as round 2's spilled shuffle state, never as a
// slice, so one budgeted run allocates less than the W × 16 bytes a
// materialised round-2 input took — on a graph where that is more than 20
// times the 64 KiB budget.
func TestCascadeBudgetBoundsAllocation(t *testing.T) {
	const budget = 64 << 10
	g := graph.Gnm(3000, 30000, 5)
	w := WedgeCount(g)
	if w*16 < 20*budget {
		t.Fatalf("fixture too small: W × 16 B = %d, want at least %d", w*16, 20*budget)
	}
	cfg := mapreduce.Config{Parallelism: 2, Partitions: 2, MemoryBudget: budget, SpillDir: t.TempDir()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Triangles(t.Context(), g, cfg, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wedges != w {
		t.Fatalf("%d wedges, WedgeCount %d", res.Wedges, w)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(w*16) {
		t.Errorf("a budgeted run allocated %d bytes, want below W × 16 B = %d", alloc, w*16)
	} else {
		t.Logf("a budgeted run allocated %d bytes; W × 16 B = %d", alloc, w*16)
	}
}

// TestCascadeRoundOneKeepsItsBuffer: under a budget, a round-1 reduce
// worker that never crossed its share reduces from its buffer — it writes
// no run — and round 2 buffers beside it in what is left of the share. On
// Gnm(1000, 5000, 1) at 1 MiB round 1's 10 000 pairs fit every worker's
// share, so round 1 spills nothing, and the cascade still finds every
// triangle.
func TestCascadeRoundOneKeepsItsBuffer(t *testing.T) {
	g := graph.Gnm(1000, 5000, 1)
	want := int64(0)
	serial.Triangles(g, func(graph.Node, graph.Node, graph.Node) { want++ })
	for _, np := range []int{1, 2, 4} {
		cfg := mapreduce.Config{Parallelism: 2, Partitions: np, MemoryBudget: 1 << 20, SpillDir: t.TempDir()}
		res, err := Triangles(t.Context(), g, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r1 := res.Rounds[0].Metrics; r1.SpilledPairs != 0 || r1.SpillFiles != 0 {
			t.Errorf("%d partitions: round 1 spilled %d pairs in %d runs", np, r1.SpilledPairs, r1.SpillFiles)
		}
		if n := res.Rounds[1].Metrics.Outputs; n != want {
			t.Errorf("%d partitions: %d triangles, serial %d", np, n, want)
		}
	}
}
