package triangle

import (
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"subgraphmr/internal/core"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
	"subgraphmr/internal/shares"
)

// collect runs a at b buckets (seed 7) and materializes the triangles.
func collect(t *testing.T, a Algo, g *graph.Graph, b int) ([][3]graph.Node, mapreduce.Metrics) {
	t.Helper()
	var tris [][3]graph.Node
	m, err := a.Run(t.Context(), g, b, 7, mapreduce.Config{}, func(tr [3]graph.Node) bool {
		tris = append(tris, tr)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return tris, m
}

// count runs a at b buckets (seed 7) without a sink.
func count(t *testing.T, a Algo, g *graph.Graph, b int) mapreduce.Metrics {
	t.Helper()
	m, err := a.Run(t.Context(), g, b, 7, mapreduce.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bucketRun runs Section 2.3's algorithm — core's bucket-oriented job on the
// triangle — at b buckets (seed 7) into sink; a nil sink counts.
func bucketRun(t *testing.T, g *graph.Graph, b int, sink func([]graph.Node) bool) *core.Result {
	t.Helper()
	opt := core.Options{Buckets: b, Seed: 7}
	qs, err := core.CompileCQs(sample.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Enumerate(t.Context(), g, sample.Triangle(), core.BucketOriented, qs, opt, sink)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// bucketCount is bucketRun without a sink, returning the job's metrics.
func bucketCount(t *testing.T, g *graph.Graph, b int) mapreduce.Metrics {
	t.Helper()
	return bucketRun(t, g, b, nil).Jobs[0].Metrics
}

// TestAllAlgorithmsExactlyOnce: every algorithm finds exactly the serial
// triangle set, each triangle once, across graphs and bucket counts.
func TestAllAlgorithmsExactlyOnce(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Gnm(40, 180, 1),
		graph.Gnm(25, 80, 2),
		graph.CompleteGraph(12),
		graph.PowerLaw(120, 8, 2.3, 3),
		graph.CycleGraph(9),
	}
	tri := sample.Triangle()
	for _, g := range graphs {
		want := map[string]bool{}
		serial.Triangles(g, func(a, b, c graph.Node) {
			want[tri.Key([]graph.Node{a, b, c})] = true
		})
		for _, al := range Algos {
			for _, b := range []int{al.MinB, 4, 7} {
				if b < al.MinB {
					continue
				}
				tris, m := collect(t, al, g, b)
				got := map[string]bool{}
				for _, tr := range tris {
					k := tri.Key([]graph.Node{tr[0], tr[1], tr[2]})
					if got[k] {
						t.Fatalf("%s b=%d: duplicate triangle %v", al.Name, b, tr)
					}
					got[k] = true
				}
				if len(got) != len(want) {
					t.Fatalf("%s b=%d: %d triangles, serial %d (n=%d m=%d)",
						al.Name, b, len(got), len(want), g.NumNodes(), g.NumEdges())
				}
				for k := range want {
					if !got[k] {
						t.Fatalf("%s b=%d: missing %s", al.Name, b, k)
					}
				}
				// No sink: same count, nothing delivered.
				if n := count(t, al, g, b).Outputs; m.Outputs != int64(len(tris)) || n != m.Outputs {
					t.Fatalf("%s b=%d: Outputs %d with a sink, %d without, %d triangles delivered",
						al.Name, b, m.Outputs, n, len(tris))
				}
			}
		}
	}
}

// TestCommunicationExact: measured communication matches the closed forms.
// Multiway and Section 2.3's bucket job (Theorem 4.2's C(b+p-3, p-2) = b at
// p = 3) are deterministic per edge; Partition depends on how many edges
// have both ends in one group, computed exactly.
func TestCommunicationExact(t *testing.T) {
	g := graph.Gnm(60, 400, 5)
	m := int64(g.NumEdges())
	for _, b := range []int{3, 5, 10} {
		if got, want := count(t, Multiway, g, b).KeyValuePairs, m*int64(3*b-2); got != want {
			t.Errorf("multiway b=%d: comm %d, want %d", b, got, want)
		}
		if got, want := bucketCount(t, g, b).KeyValuePairs, m*int64(b); got != want || shares.BucketEdgeReplication(b, 3) != float64(b) {
			t.Errorf("bucket b=%d: comm %d, want %d; closed form %v per edge", b, got, want, shares.BucketEdgeReplication(b, 3))
		}

		pm := count(t, Partition, g, b)
		h := graph.NodeHash{Seed: 7, B: b}
		var want int64
		for _, e := range g.Edges() {
			if h.Bucket(e.U) == h.Bucket(e.V) {
				want += int64((b - 1) * (b - 2) / 2)
			} else {
				want += int64(b - 2)
			}
		}
		if pm.KeyValuePairs != want {
			t.Errorf("partition b=%d: comm %d, want %d", b, pm.KeyValuePairs, want)
		}
		// The expectation formula approximates the hash-dependent exact count.
		expect := Partition.CommPerEdge(b) * float64(m)
		if got := float64(pm.KeyValuePairs); math.Abs(got-expect) > 0.25*expect+float64(b*b) {
			t.Errorf("partition b=%d: comm %v far from expected %v", b, got, expect)
		}
	}
}

// TestReducerCounts: distinct keys never exceed the formula counts, and
// reach them on dense graphs.
func TestReducerCounts(t *testing.T) {
	dense := graph.CompleteGraph(40)
	b := 4
	if got := count(t, Partition, dense, b).DistinctKeys; got != Partition.Reducers(b) {
		t.Errorf("partition reducers = %d, want %d", got, Partition.Reducers(b))
	}
	if got := count(t, Multiway, dense, b).DistinctKeys; got > Multiway.Reducers(b) {
		t.Errorf("multiway reducers = %d > %d", got, Multiway.Reducers(b))
	}
	if got, want := bucketCount(t, dense, b).DistinctKeys, shares.UsefulReducers(b, 3); float64(got) != want || want != 20 {
		t.Errorf("bucket reducers = %d, want C(6,3) = %v", got, want)
	}
}

// TestFig2 reproduces the Fig. 2 table: with ~2^20 reducers Partition uses
// b=12 at 13.75 per edge, Section 2.2 uses b=6 (2^16 reducers) at 16 per
// edge, Section 2.3 uses b=10 at 10 per edge.
func TestFig2(t *testing.T) {
	if got := Partition.CommPerEdge(12); got != 13.75 {
		t.Errorf("Partition b=12: %v per edge, want 13.75", got)
	}
	if got := Multiway.CommPerEdge(6); got != 16 {
		t.Errorf("Multiway b=6: %v per edge, want 16", got)
	}
	if got := shares.BucketEdgeReplication(10, 3); got != 10 {
		t.Errorf("Section 2.3 b=10: %v per edge, want 10", got)
	}
	if Partition.Reducers(12) != 220 {
		t.Errorf("C(12,3) = %d", Partition.Reducers(12))
	}
	if Multiway.Reducers(6) != 216 {
		t.Errorf("6^3 = %d", Multiway.Reducers(6))
	}
	if got := shares.UsefulReducers(10, 3); got != 220 {
		t.Errorf("C(12,3) = %v", got)
	}
}

// TestFig1Asymptotics: at equal reducer budget, Section 2.3 beats Partition
// by 3/2 and Section 2.2 by 3/∛6 ≈ 1.65.
func TestFig1Asymptotics(t *testing.T) {
	p, mw, bo := Fig1CommPerEdge(1e6)
	if r := p / bo; math.Abs(r-1.5) > 1e-9 {
		t.Errorf("partition/bucketordered = %v, want 1.5", r)
	}
	want := 3 / math.Cbrt(6)
	if r := mw / bo; math.Abs(r-want) > 1e-9 {
		t.Errorf("multiway/bucketordered = %v, want %v", r, want)
	}
}

func TestBucketsFor(t *testing.T) {
	if b := Partition.BucketsFor(1 << 20); b < 12 {
		t.Errorf("partition buckets for 2^20 = %d, want >= 12", b)
	}
	if b := Multiway.BucketsFor(1 << 16); b != 40 {
		t.Errorf("multiway buckets for 2^16 = %d, want 40 (40^3 = 64000 <= 65536)", b)
	}
	if b := shares.BucketsForReducers(220, 3); b != 10 {
		t.Errorf("Section 2.3 buckets for 220 = %d, want 10", b)
	}
}

// TestConvertibility is the Section 2.3 / Theorem 6.1 claim: the total
// reducer computation stays within a constant factor of the serial
// algorithm's work as b grows. The kernel counts every candidate it reads,
// first steps included, so a reducer's work includes reading its input: the
// bound is on serial work plus communication, and it holds flat in b.
func TestConvertibility(t *testing.T) {
	g := graph.Gnm(300, 2500, 11)
	serialWork := serial.Triangles(g, func(_, _, _ graph.Node) {})
	// Measured on this graph: at most 1.78 (Partition, b = 16, whose
	// reducers bind every triangle of their group and keep one in C(b-1,2)
	// or so); Section 2.3's bucket job and Multiway stay at or below 1.
	const c = 2.25
	check := func(t *testing.T, b int, m mapreduce.Metrics) {
		if ratio := float64(m.ReducerWork) / float64(serialWork+m.KeyValuePairs); ratio > c {
			t.Errorf("b=%d: reducer work %d is %.2fx serial %d + comm %d — not convertible",
				b, m.ReducerWork, ratio, serialWork, m.KeyValuePairs)
		}
	}
	for _, a := range Algos {
		t.Run(a.Name, func(t *testing.T) {
			for _, b := range []int{a.MinB, 4, 8, 16} {
				check(t, b, count(t, a, g, b))
			}
		})
	}
	t.Run("bucket", func(t *testing.T) {
		for _, b := range []int{1, 4, 8, 16} {
			check(t, b, bucketCount(t, g, b))
		}
	})
}

// TestSkewReporting: on a heavy-tailed graph the engine reports max reducer
// input (the "curse of the last reducer" metric).
func TestSkewReporting(t *testing.T) {
	g := graph.PowerLaw(300, 10, 2.1, 9)
	m := bucketCount(t, g, 6)
	if m.MaxReducerInput <= 0 {
		t.Error("max reducer input not reported")
	}
	avg := float64(m.KeyValuePairs) / float64(m.DistinctKeys)
	if float64(m.MaxReducerInput) < avg {
		t.Error("max reducer input below average — impossible")
	}
}

// TestValidation: a bucket count below an algorithm's minimum, or above what
// a reducer-key lane holds, is an error from both Run and the load probes —
// the probes used to skip the first check for Multiway and Section 2.3's
// algorithm and divide by zero inside a probe goroutine, and nothing but
// Plan made the second. ProbeLoads' "bucket" is core's bucket job at p = 3
// and is held to the same rules.
func TestValidation(t *testing.T) {
	g := graph.CompleteGraph(4)
	for _, a := range Algos {
		for _, b := range []int{a.MinB - 3, a.MinB - 2, a.MinB - 1, graph.MaxBuckets + 1} {
			if _, err := a.Run(t.Context(), g, b, 7, mapreduce.Config{}, nil); err == nil {
				t.Errorf("%s.Run with b=%d should fail", a.Name, b)
			}
			if _, err := a.ProbeLoads(g, b, 7, mapreduce.Config{}); err == nil {
				t.Errorf("%s.ProbeLoads with b=%d should fail", a.Name, b)
			}
			if _, err := ProbeLoads(g, a.Name, b, 7, mapreduce.Config{}); err == nil {
				t.Errorf("ProbeLoads(%q) with b=%d should fail", a.Name, b)
			}
		}
		// At the minimum, the probe sees exactly the pairs the run ships.
		ls, err := ProbeLoads(g, a.Name, a.MinB, 7, mapreduce.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if m := count(t, a, g, a.MinB); ls.Pairs != m.KeyValuePairs || ls.Keys != m.DistinctKeys || ls.MaxLoad != m.MaxReducerInput {
			t.Errorf("%s b=%d: probe %+v, run %+v", a.Name, a.MinB, ls, m)
		}
	}
	for _, b := range []int{-2, -1, 0, graph.MaxBuckets + 1} {
		if _, err := ProbeLoads(g, "bucket", b, 7, mapreduce.Config{}); err == nil {
			t.Errorf(`ProbeLoads("bucket") with b=%d should fail`, b)
		}
	}
	ls, err := ProbeLoads(g, "bucket", 1, 7, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m := bucketCount(t, g, 1); ls.Pairs != m.KeyValuePairs || ls.Keys != m.DistinctKeys || ls.MaxLoad != m.MaxReducerInput {
		t.Errorf("bucket b=1: probe %+v, run %+v", ls, m)
	}
	if _, err := ProbeLoads(g, "no-such-algorithm", 4, 7, mapreduce.Config{}); err == nil {
		t.Error("ProbeLoads with an unknown algorithm should fail")
	}
	// The largest bucket count a lane holds still runs.
	if res := bucketRun(t, g, graph.MaxBuckets, nil); res.Count != 4 {
		t.Errorf("bucket at b=%d found %d triangles of K4, want 4", graph.MaxBuckets, res.Count)
	}
}

// TestMapperAllocations: a block id is arithmetic on two hashes — no
// allocation per input edge in either map side.
func TestMapperAllocations(t *testing.T) {
	h := graph.NodeHash{Seed: 7, B: 6}
	stored := 0
	emit := func(int, graph.Edge) { stored++ }
	for name, mapper := range map[string]func(graph.Edge, func(int, graph.Edge)){
		"pair": pairMapper{h}.Map, "multiway": multiwayMapper{h}.Map,
	} {
		for _, e := range []graph.Edge{{U: 1, V: 2}, {U: 17, V: 4242}, {U: 5, V: 11}} {
			if allocs := testing.AllocsPerRun(100, func() { mapper(e, emit) }); allocs != 0 {
				t.Errorf("%s mapper on %v: %v allocs per edge, want 0", name, e, allocs)
			}
		}
	}
	if stored == 0 {
		t.Fatal("the mappers stored nothing; the test measures nothing")
	}
}

// The per-pair mappers the two algorithms ran before replication went by
// reference, kept as the reference their block jobs are held to. (Section
// 2.3's is core's bucket scheme at p = 3, which core's
// TestBlockLoadsMatchPairMappers holds to its own reference.)
var refMappers = map[string]func(h graph.NodeHash, e graph.Edge, emit func(graph.BucketKey)){
	// Every 3-subset of groups containing both endpoint groups: C(b-1,2)
	// subsets when they coincide, b-2 otherwise.
	"partition": func(h graph.NodeHash, e graph.Edge, emit func(graph.BucketKey)) {
		gu, gv := h.Bucket(e.U), h.Bucket(e.V)
		for x := 0; x < h.B; x++ {
			for y := x + 1; y < h.B; y++ {
				if gu == gv && x != gu && y != gu {
					emit(graph.MultisetKey(gu, x, y))
				}
			}
			if gu != gv && x != gu && x != gv {
				emit(graph.MultisetKey(gu, gv, x))
			}
		}
	},
	// The edge in each of its three join roles across b shares, coinciding
	// role copies merged (footnote 1): 3b−2 distinct reducers.
	"multiway": func(h graph.NodeHash, e graph.Edge, emit func(graph.BucketKey)) {
		hu, hv := h.Bucket(e.U), h.Bucket(e.V)
		seen := map[graph.BucketKey]bool{}
		for w := 0; w < h.B; w++ {
			for _, k := range []graph.BucketKey{tupleKey(hu, hv, w), tupleKey(w, hu, hv), tupleKey(hu, w, hv)} {
				if !seen[k] {
					seen[k] = true
					emit(k)
				}
			}
		}
	},
}

// shuffle is what a job's engine hands its reduce side: every non-empty
// block's values (Prepare's input), and per reducer key the blocks it reads
// and the edges gathered from them (Reduce's).
type shuffle struct {
	vals   map[int][]graph.Edge
	blocks map[graph.BucketKey][]int32
	groups map[graph.BucketKey][]graph.Edge
}

// shuffleOf runs a's job under h with a reduce side that records what it is
// handed instead of evaluating it.
func shuffleOf(t *testing.T, a Algo, h graph.NodeHash, g *graph.Graph) (shuffle, mapreduce.Metrics) {
	t.Helper()
	sh := shuffle{vals: map[int][]graph.Edge{}, blocks: map[graph.BucketKey][]int32{}, groups: map[graph.BucketKey][]graph.Edge{}}
	var mu sync.Mutex
	job := a.job(h)
	job.Prepare = func(_ *mapreduce.Context, block int, edges []graph.Edge) {
		mu.Lock()
		defer mu.Unlock()
		sh.vals[block] = slices.Clone(edges)
	}
	job.Reduce = func(ctx *mapreduce.Context, key graph.BucketKey, edges []graph.Edge, _ func([3]graph.Node)) {
		mu.Lock()
		defer mu.Unlock()
		sh.blocks[key], sh.groups[key] = slices.Clone(ctx.Blocks), slices.Clone(edges)
	}
	m, err := job.RunStream(t.Context(), mapreduce.Config{}, g.Edges(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sh, m
}

// TestBlockLoadsMatchPairMappers: on the differential harness's graphs each
// algorithm's reducers read, key by key, as many edges as its per-pair
// mapper emitted pairs — so every communication metric is what it was.
func TestBlockLoadsMatchPairMappers(t *testing.T) {
	graphs := map[string]*graph.Graph{ // difftest.Graphs(7)
		"gnm":      graph.Gnm(26, 60, 7),
		"powerlaw": graph.PowerLaw(30, 5, 2.3, 8),
	}
	for gname, g := range graphs {
		for _, a := range Algos {
			for _, b := range []int{a.MinB, 4, 7} {
				h, err := a.hash(b, 11)
				if err != nil {
					t.Fatal(err)
				}
				want := map[graph.BucketKey]int{}
				for _, e := range g.Edges() {
					refMappers[a.Name](h, e, func(k graph.BucketKey) { want[k]++ })
				}
				sh, m := shuffleOf(t, a, h, g)
				got := map[graph.BucketKey]int{}
				for key, edges := range sh.groups {
					got[key] = len(edges)
				}
				if !maps.Equal(got, want) {
					t.Errorf("%s %s b=%d: block job loads %v, the pair mapper shipped %v", gname, a.Name, b, got, want)
				}
				if m.DistinctKeys != int64(len(want)) {
					t.Errorf("%s %s b=%d: %d reducers ran, the pair mapper reached %d", gname, a.Name, b, m.DistinctKeys, len(want))
				}
			}
		}
	}
}

// TestBucketOrderedBeatsOthersMeasured: at (approximately) equal reducer
// budgets, measured communication orders as Fig. 2 predicts — Section 2.3's
// algorithm (core's bucket job at p = 3) below Partition and Multiway.
func TestBucketOrderedBeatsOthersMeasured(t *testing.T) {
	g := graph.Gnm(80, 600, 13)
	k := int64(220)
	bPart := Partition.BucketsFor(k)                // 12
	bMulti := Multiway.BucketsFor(k)                // 6
	bBucket := shares.BucketsForReducers(int(k), 3) // 10
	rp := count(t, Partition, g, bPart).KeyValuePairs
	rm := count(t, Multiway, g, bMulti).KeyValuePairs
	rb := bucketCount(t, g, bBucket).KeyValuePairs
	if !(rb < rp) {
		t.Errorf("bucketordered %d should beat partition %d", rb, rp)
	}
	if !(rb < rm) {
		t.Errorf("bucketordered %d should beat multiway %d", rb, rm)
	}
}

// TestReducerStopsMidGroup: at the smallest b one reducer holds every edge
// of K60 (Partition at b = 3, Section 2.3's bucket job at b = 1). A sink
// that stops at the first triangle leaves that reducer within one
// first-step candidate's subtree, so the stopped run does strictly less
// reducer work than the full one.
func TestReducerStopsMidGroup(t *testing.T) {
	g := graph.CompleteGraph(60)
	check := func(t *testing.T, b int, full, stopped mapreduce.Metrics) {
		if full.DistinctKeys != 1 {
			t.Fatalf("b=%d: %d reducers, want one holding every edge", b, full.DistinctKeys)
		}
		if stopped.ReducerWork >= full.ReducerWork {
			t.Errorf("b=%d: stopped run did %d work, the full run %d — the reducer did not poll Stopped",
				b, stopped.ReducerWork, full.ReducerWork)
		}
	}
	t.Run("bucket", func(t *testing.T) {
		stopped := bucketRun(t, g, 1, func([]graph.Node) bool { return false })
		check(t, 1, bucketCount(t, g, 1), stopped.Jobs[0].Metrics)
	})
	t.Run(Partition.Name, func(t *testing.T) {
		stopped, err := Partition.Run(t.Context(), g, Partition.MinB, 7, mapreduce.Config{}, func([3]graph.Node) bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		check(t, Partition.MinB, count(t, Partition, g, Partition.MinB), stopped)
	})
}

// TestReducerAllocations: a Partition reducer call against a warmed worker
// slot allocates nothing, on a group smaller and then larger than the one
// before it. (Section 2.3's reducer is core's bucket-oriented one, pinned on
// the same graph by core's TestReducerAllocations.)
func TestReducerAllocations(t *testing.T) {
	g := graph.Gnm(60, 400, 9)
	a := Partition
	t.Run(a.Name, func(t *testing.T) {
		h, err := a.hash(4, 7)
		if err != nil {
			t.Fatal(err)
		}
		sh, _ := shuffleOf(t, a, h, g)
		groups := sh.groups
		var small, large graph.BucketKey
		first := true
		for key, edges := range groups {
			if first || len(edges) < len(groups[small]) {
				small = key
			}
			if first || len(edges) > len(groups[large]) {
				large = key
			}
			first = false
		}
		if len(groups[small]) == len(groups[large]) {
			t.Fatalf("every group has %d edges", len(groups[small]))
		}
		job := a.job(h)
		ctx := &mapreduce.Context{}
		for block, edges := range sh.vals {
			job.Prepare(ctx, block, edges)
		}
		emitted := 0
		emit := func([3]graph.Node) { emitted++ }
		call := func() {
			ctx.Blocks = sh.blocks[small]
			job.Reduce(ctx, small, groups[small], emit)
			ctx.Blocks = sh.blocks[large]
			job.Reduce(ctx, large, groups[large], emit)
		}
		call() // growth happens here, once
		if emitted == 0 {
			t.Fatal("the two groups own no triangle; the test measures nothing")
		}
		if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
			t.Errorf("%v allocs per pair of warmed reducer calls, want 0", allocs)
		}
	})
}
