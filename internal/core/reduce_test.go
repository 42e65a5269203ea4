package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
)

// reducerBed is one job's mapper and reducer taken out of the engine, so a
// test can call the reducer key by key on a worker Context of its own.
type reducerBed struct {
	name string
	shuffle
	reducer *enumReducer
	// owner reports whether the reducer of key owns phi, recomputed from
	// the node ids with the job's hashes.
	owner func(key graph.BucketKey, phi []graph.Node) bool
}

// shuffle is what a job's engine hands its reduce side: every non-empty
// block's values (Prepare's input), and per reducer key the blocks it reads
// and the edges gathered from them (Reduce's).
type shuffle struct {
	vals   map[int][]graph.Edge
	blocks map[graph.BucketKey][]int32
	groups map[graph.BucketKey][]graph.Edge
}

// shuffleOf runs a job over g under a reduce side that only records what it
// is handed.
func shuffleOf(job enumJob, g *graph.Graph) shuffle {
	sh := shuffle{vals: map[int][]graph.Edge{}, blocks: map[graph.BucketKey][]int32{}, groups: map[graph.BucketKey][]graph.Edge{}}
	var mu sync.Mutex
	job.Prepare = func(_ *mapreduce.Context, block int, edges []graph.Edge) {
		mu.Lock()
		defer mu.Unlock()
		if sh.vals[block] != nil {
			panic(fmt.Sprintf("block %d prepared twice", block))
		}
		sh.vals[block] = slices.Clone(edges)
	}
	job.Reduce = func(ctx *mapreduce.Context, key graph.BucketKey, edges []graph.Edge, _ func([]graph.Node)) {
		mu.Lock()
		defer mu.Unlock()
		if sh.groups[key] != nil {
			panic(fmt.Sprintf("reducer %v called twice", key))
		}
		sh.blocks[key], sh.groups[key] = slices.Clone(ctx.Blocks), slices.Clone(edges)
	}
	if _, err := job.RunStream(context.Background(), mapreduce.Config{}, g.Edges(), nil); err != nil {
		panic(err)
	}
	return sh
}

// prepare lays every block out on ctx's worker, as the engine would before
// the first task reading it.
func (bed *reducerBed) prepare(ctx *mapreduce.Context) {
	for block, edges := range bed.vals {
		bed.reducer.prepare(ctx, block, edges)
	}
}

// reduce calls the reducer on key's group as the engine would.
func (bed *reducerBed) reduce(ctx *mapreduce.Context, key graph.BucketKey, emit func([]graph.Node)) {
	ctx.Blocks = bed.blocks[key]
	bed.reducer.reduce(ctx, key, bed.groups[key], emit)
}

// reducerBeds builds the bucket-oriented job, the variable-oriented job
// and the cq-oriented jobs (one per CQ, all named "cq-oriented") of s over
// g, delivering owned matches to sink (nil counts).
func reducerBeds(g *graph.Graph, s *sample.Sample, sink func([]graph.Node) bool) []reducerBed {
	p := s.P()
	qs := cq.MergeByOrientation(cq.GenerateForSample(s))
	bm, err := newBucketScheme(3, p, 3)
	if err != nil {
		panic(err)
	}
	h := bm.h
	bucket := reducerBed{
		name:    "bucket-oriented",
		shuffle: shuffleOf(bm.job("groups"), g),
		reducer: newBucketReducer(cq.NewEvaluatorSet(qs), bm, &matchSink{sink: sink}),
		owner: func(key graph.BucketKey, phi []graph.Node) bool {
			buckets := make([]byte, len(phi))
			for i, u := range phi {
				buckets[i] = byte(h.Bucket(u))
			}
			slices.Sort(buckets)
			return string(buckets) == string(key[:len(phi)])
		},
	}

	intShares := make([]int, p)
	for v := range intShares {
		intShares[v] = 2 + v%2
	}
	share := func(name string, qs []*cq.CQ, binds []edgeBinding) reducerBed {
		sm, err := newShareScheme(3, binds, intShares)
		if err != nil {
			panic(err)
		}
		hashes := sm.hashes
		return reducerBed{
			name:    name,
			shuffle: shuffleOf(sm.job("groups"), g),
			reducer: newShareReducer(cq.NewEvaluatorSet(qs), sm, g, &matchSink{sink: sink}),
			owner: func(key graph.BucketKey, phi []graph.Node) bool {
				for v, u := range phi {
					if hashes[v].Bucket(u) != int(key[v]) {
						return false
					}
				}
				return true
			},
		}
	}
	beds := []reducerBed{bucket, share("variable-oriented", qs, bindingsFromUses(cq.EdgeUses(qs)))}
	for _, q := range qs {
		beds = append(beds, share("cq-oriented", []*cq.CQ{q}, bindingsFromCQ(q)))
	}
	return beds
}

// TestReducerOwnership: one worker Context carried through every key of a
// job — fragments growing and shrinking under it — emits each instance at
// exactly the reducer that owns it; in particular the bucket the
// bucket-oriented reducer reads off its fragment is the hash of the node it
// emits. The kernel prunes completely: owns, the guard behind it, never
// sees a match its reducer does not own.
func TestReducerOwnership(t *testing.T) {
	g := graph.Gnm(40, 160, 5)
	for _, s := range []*sample.Sample{sample.Triangle(), sample.Square(), sample.Lollipop(), sample.Cycle(5)} {
		results := map[string]*Result{}
		for _, bed := range reducerBeds(g, s, func([]graph.Node) bool { return true }) {
			rejected := 0
			bed.reducer.reject = func([]int32) { rejected++ }
			ctx := &mapreduce.Context{}
			bed.prepare(ctx)
			if results[bed.name] == nil {
				results[bed.name] = &Result{}
			}
			res := results[bed.name]
			for key := range bed.groups {
				bed.reduce(ctx, key, func(phi []graph.Node) {
					if !bed.owner(key, phi) {
						t.Fatalf("%s %v: reducer %v emitted %v, which it does not own", bed.name, s, key, phi)
					}
					res.Instances = append(res.Instances, phi)
				})
			}
			if rejected > 0 {
				t.Errorf("%s %v: owns rejected %d raw matches the kernel should have pruned", bed.name, s, rejected)
			}
		}
		if len(results) != 3 {
			t.Fatalf("%v: beds cover %d strategies, want 3", s, len(results))
		}
		for name, res := range results {
			if len(res.Instances) == 0 {
				t.Fatalf("%s %v: no instance in the graph; the test measures nothing", name, s)
			}
			checkExactlyOnce(t, g, s, res)
		}
	}
}

// TestReducerAllocations pins the allocation win: against a warmed worker
// slot a reducer call — the ownership setup (a share job's mask, a
// multiset job's quota and lanes) included — allocates nothing when
// counting, and when emitting at most one slab chunk per 256 instances
// (the worker carves its instances from shared chunks), whether the group
// is smaller or larger than the call before it.
func TestReducerAllocations(t *testing.T) {
	g := graph.Gnm(60, 400, 9)
	for _, counting := range []bool{true, false} {
		var sink func([]graph.Node) bool
		if !counting {
			sink = func([]graph.Node) bool { return true }
		}
		for _, bed := range reducerBeds(g, sample.Triangle(), sink) {
			var small, large graph.BucketKey
			first := true
			for key, edges := range bed.groups {
				if first || len(edges) < len(bed.groups[small]) {
					small = key
				}
				if first || len(edges) > len(bed.groups[large]) {
					large = key
				}
				first = false
			}
			if len(bed.groups[small]) == len(bed.groups[large]) {
				t.Fatalf("%s: every group has %d edges", bed.name, len(bed.groups[small]))
			}
			ctx := &mapreduce.Context{}
			bed.prepare(ctx)
			emitted := 0
			emit := func([]graph.Node) { emitted++ }
			call := func() {
				bed.reduce(ctx, small, emit)
				bed.reduce(ctx, large, emit)
			}
			call() // growth happens here, once
			limit := (emitted + 255) / 256
			if counting {
				limit = 0
				if bed.reducer.ms.counted.Load() == 0 {
					t.Fatalf("%s: the two groups own no triangle; the test measures nothing", bed.name)
				}
			} else if emitted == 0 {
				t.Fatalf("%s: the two groups own no triangle; the test measures nothing", bed.name)
			}
			if allocs := testing.AllocsPerRun(20, call); allocs > float64(limit) {
				t.Errorf("%s counting=%v: %v allocs per pair of reducer calls emitting %d, want at most %d (one slab chunk per 256 instances)",
					bed.name, counting, allocs, emitted, limit)
			}
		}
	}
}

// TestMapperAllocations: neither scheme allocates per input edge — a block
// id is arithmetic on two hashes, one per binding.
func TestMapperAllocations(t *testing.T) {
	qs := cq.MergeByOrientation(cq.GenerateForSample(sample.Lollipop()))
	bm, err := newBucketScheme(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := newShareScheme(3, bindingsFromUses(cq.EdgeUses(qs)), []int{2, 3, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	emit := func(int, graph.Edge) { stored++ }
	for name, mapper := range map[string]func(graph.Edge, func(int, graph.Edge)){
		"bucket": bm.Map, "share": sm.Map,
	} {
		if allocs := testing.AllocsPerRun(100, func() { mapper(graph.Edge{U: 17, V: 4242}, emit) }); allocs != 0 {
			t.Errorf("%s scheme: %v allocs per edge, want 0", name, allocs)
		}
	}
	if stored == 0 {
		t.Fatal("the schemes stored nothing; the test measures nothing")
	}
}

// TestShareMaskPastEightVariables: a share job's mask compares a node's
// lanes with the key's eight at a time, so a sample of more than eight
// nodes needs the second word. The 9-node star's instances are the hubs
// with eight of their neighbors, Σ_u C(deg u, 8) of them; the variable- and
// cq-oriented jobs find exactly that many, and the kernel prunes every
// match the reducer does not own.
func TestShareMaskPastEightVariables(t *testing.T) {
	g := graph.Gnm(40, 220, 3)
	want := int64(0)
	for u := range g.NumNodes() {
		c := int64(1) // C(deg u, 8)
		for i := int64(0); i < 8; i++ {
			c = c * (int64(g.Degree(graph.Node(u))) - i) / (i + 1)
		}
		want += max(c, 0)
	}
	if want == 0 {
		t.Fatal("the graph holds no 9-node star; the test measures nothing")
	}
	s := sample.Star(9)
	qs := cq.MergeByOrientation(cq.GenerateForSample(s))
	jobs := map[string][][]edgeBinding{"variable-oriented": {bindingsFromUses(cq.EdgeUses(qs))}}
	for _, q := range qs {
		jobs["cq-oriented"] = append(jobs["cq-oriented"], bindingsFromCQ(q))
	}
	for name, binds := range jobs {
		var count int64
		rejected := 0
		for i, b := range binds {
			sm, err := newShareScheme(5, b, []int{2, 1, 2, 1, 2, 1, 1, 2, 2})
			if err != nil {
				t.Fatal(err)
			}
			jqs := qs
			if name == "cq-oriented" {
				jqs = qs[i : i+1]
			}
			ms := &matchSink{}
			r := newShareReducer(cq.NewEvaluatorSet(jqs), sm, g, ms)
			r.reject = func([]int32) { rejected++ }
			n, _, err := ms.run(t.Context(), r.side(sm.job(name)), mapreduce.Config{Partitions: 1}, g)
			if err != nil {
				t.Fatal(err)
			}
			count += n
		}
		if count != want || rejected != 0 {
			t.Errorf("%s: %d stars, %d rejected matches; want %d, 0", name, count, rejected, want)
		}
	}
}
