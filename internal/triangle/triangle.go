// Package triangle implements the two single-round map-reduce
// triangle-enumeration baselines of Section 2:
//
//   - Partition — the algorithm of Suri & Vassilvitskii (Section 2.1):
//     nodes are split into b groups, one reducer per 3-subset of groups,
//     communication ≈ 3bm/2.
//   - Multiway — the plain multiway join E(X,Y) ⋈ E(Y,Z) ⋈ E(X,Z) of
//     Afrati & Ullman (Section 2.2): b³ reducers, communication (3b−2)m.
//
// The paper's improvement (Section 2.3: nodes ordered by (bucket, id), one
// reducer per nondecreasing bucket triple, communication exactly bm) is
// Section 4.5's bucket-oriented strategy at p = 3, so it runs as package
// core's bucket-oriented job; ProbeLoads still answers to its name.
//
// Both enumerate every triangle exactly once; ownership filters reproduce
// the papers' "discovered by only one reducer" arguments.
package triangle

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"subgraphmr/internal/core"
	"subgraphmr/internal/cq"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
)

// Algo is one of the two Section 2 baselines: its closed forms and, behind
// Run and ProbeLoads, the one job both execution and the planner's load
// probes are built from — so a probe observes exactly the loads a run ships
// and both reject the same bucket counts. The two values Partition and
// Multiway are the whole set (see Algos).
type Algo struct {
	// Name is the algorithm's short name: "partition" or "multiway".
	Name string
	// MinB is the smallest bucket count the algorithm is defined for.
	MinB int
	// CommPerEdge is the exact (Partition: expected) communication per data
	// edge at b buckets.
	CommPerEdge func(b int) float64
	// Reducers is the reducer count at b buckets.
	Reducers func(b int) int64

	// job is the algorithm under the seeded node hash h, at h.B buckets.
	job func(h graph.NodeHash) edgeJob
}

// The Section 2 algorithms.
var (
	// Partition is the Suri–Vassilvitskii algorithm (Section 2.1): C(b,3)
	// reducers, expected communication 3(b−1)(b−2)/(2b) per edge.
	Partition = Algo{"partition", 3, partitionCommPerEdge, partitionReducers, partitionJob}
	// Multiway is the plain multiway join (Section 2.2): b³ reducers,
	// communication 3b−2 per edge.
	Multiway = Algo{"multiway", 1, multiwayCommPerEdge, multiwayReducers, multiwayJob}

	// Algos lists the two algorithms.
	Algos = []Algo{Partition, Multiway}
)

// hash validates b and returns the seeded node hash of a job at b buckets.
func (a Algo) hash(b int, seed uint64) (graph.NodeHash, error) {
	if b < a.MinB {
		return graph.NodeHash{}, fmt.Errorf("triangle: %s needs b >= %d, got %d", a.Name, a.MinB, b)
	}
	if err := graph.CheckKey(3, b); err != nil {
		return graph.NodeHash{}, fmt.Errorf("triangle: %s: %w", a.Name, err)
	}
	return graph.NodeHash{Seed: seed, B: b}, nil
}

// Run enumerates every triangle of g exactly once (as id-sorted triples)
// with b buckets, delivering each to sink — serialized, with backpressure;
// returning false stops the job early with a nil error. A nil sink counts
// without delivering. Either way Metrics.Outputs is the number of triangles
// accepted. Cancelling ctx aborts the job with ctx.Err(); see
// mapreduce.Job.RunStream for the full contract.
func (a Algo) Run(ctx context.Context, g *graph.Graph, b int, seed uint64, cfg mapreduce.Config, sink func([3]graph.Node) bool) (mapreduce.Metrics, error) {
	h, err := a.hash(b, seed)
	if err != nil {
		return mapreduce.Metrics{}, err
	}
	if sink == nil {
		sink = func([3]graph.Node) bool { return true }
	}
	return a.job(h).RunStream(ctx, cfg, g.Edges(), sink)
}

// ProbeLoads measures, map-only, the reducer loads Run would ship at bucket
// count b under the same seed.
func (a Algo) ProbeLoads(g *graph.Graph, b int, seed uint64, cfg mapreduce.Config) (mapreduce.LoadStats, error) {
	h, err := a.hash(b, seed)
	if err != nil {
		return mapreduce.LoadStats{}, err
	}
	return a.job(h).Loads(cfg, g.Edges())
}

// BucketsFor returns the largest b whose reducer count does not exceed k (at
// least MinB) — the Fig. 1 bucket choices b = ∛(6k) for Partition, b = ∛k
// for Multiway.
func (a Algo) BucketsFor(k int64) int {
	b := a.MinB
	for a.Reducers(b+1) <= k {
		b++
	}
	return b
}

// ProbeLoads is Algo.ProbeLoads by algorithm name ("partition" or
// "multiway"), or, for "bucket", the loads of Section 2.3's algorithm: core's
// bucket-oriented job on the triangle.
func ProbeLoads(g *graph.Graph, algo string, b int, seed uint64, cfg mapreduce.Config) (mapreduce.LoadStats, error) {
	if algo == "bucket" {
		return core.ProbeBucketLoads(g, 3, b, seed, cfg)
	}
	for _, a := range Algos {
		if a.Name == algo {
			return a.ProbeLoads(g, b, seed, cfg)
		}
	}
	return mapreduce.LoadStats{}, fmt.Errorf("triangle: unknown algorithm %q", algo)
}

// edgeJob is a triangle job: edges in, each stored once in the block its
// endpoint buckets name, triangles out.
type edgeJob = mapreduce.BlockJob[graph.Edge, graph.BucketKey, graph.Edge, [3]graph.Node]

// pairMapper stores an edge in the block of its unordered group pair — the
// map side of Partition, whose reducers are group sets.
type pairMapper struct{ h graph.NodeHash }

//lint:hotpath
func (m pairMapper) Map(e graph.Edge, emit func(int, graph.Edge)) {
	emit(graph.PairBlock(m.h.B, m.h.Bucket(e.U), m.h.Bucket(e.V)), e)
}

// partitionJob is the Partition algorithm with h.B ≥ 3 node groups. Each
// reducer R_{ijk} (i<j<k) receives the edges with both endpoints in
// S_i ∪ S_j ∪ S_k; a triangle is emitted only by the reducer whose triple is
// the canonical completion of the triangle's group set, so the over-counting
// the paper describes is compensated exactly.
func partitionJob(h graph.NodeHash) edgeJob {
	b := h.B
	r := newTriReducer(h, graph.PairBlocks(b), false)
	return edgeJob{
		Name:    fmt.Sprintf("partition b=%d", b),
		Blocks:  graph.PairBlocks(b),
		Map:     pairMapper{h}.Map,
		Keys:    func(yield func(graph.BucketKey, []int32)) { partitionKeys(b, yield) },
		Prepare: r.prepare,
		Reduce:  r.reduce,
		Release: releaseTriWorker,
		Codec:   graph.EdgeKeyCodec{P: 3},
	}
}

// partitionKeys lists the Partition reducers: an edge whose endpoints fall
// in groups gu, gv reaches every 3-subset of groups containing both
// (C(b-1,2) subsets when gu = gv, b-2 otherwise), so the subset {i<j<k}
// reads its three off-diagonal and its three diagonal pair blocks.
func partitionKeys(b int, yield func(graph.BucketKey, []int32)) {
	blk := func(x, y int) int32 { return int32(graph.PairBlock(b, x, y)) }
	for i := 0; i < b; i++ {
		for j := i + 1; j < b; j++ {
			for k := j + 1; k < b; k++ {
				yield(graph.MultisetKey(i, j, k), []int32{blk(i, j), blk(i, k), blk(j, k), blk(i, i), blk(j, j), blk(k, k)})
			}
		}
	}
}

// canonicalGroupTriple maps a triangle to the unique reducer that owns it:
// the sorted distinct groups of its nodes, completed to three distinct
// values with the smallest unused group numbers.
func canonicalGroupTriple(h graph.NodeHash, b int, a, bb, c graph.Node) graph.BucketKey {
	var d [3]int
	nd := 0
	for _, u := range [3]graph.Node{a, bb, c} {
		g := h.Bucket(u)
		dup := false
		for i := 0; i < nd; i++ {
			if d[i] == g {
				dup = true
				break
			}
		}
		if !dup {
			d[nd] = g
			nd++
		}
	}
	for x := 0; nd < 3; x++ {
		used := false
		for i := 0; i < nd; i++ {
			if d[i] == x {
				used = true
				break
			}
		}
		if !used {
			d[nd] = x
			nd++
		}
		if x > b {
			panic("triangle: cannot complete group triple")
		}
	}
	return graph.MultisetKey(d[0], d[1], d[2])
}

// multiwayJob is the Section 2.2 algorithm: the cyclic join
// E(X,Y) ⋈ E(Y,Z) ⋈ E(X,Z) over the id-ordered edge relation, with shares
// (b, b, b). An edge is stored once, in the block of its ordered bucket pair
// (h(u), h(v)); reducer (x, y, z) reads the blocks (x,y), (y,z) and (x,z) —
// the distinct ones, so an edge playing two roles at a reducer arrives once
// and each edge reaches exactly 3b−2 reducers: the paper's footnote-1 dedup
// is structural. The reducer runs Partition's kernel, restricted to the
// triangles whose buckets, in id order, are its key.
func multiwayJob(h graph.NodeHash) edgeJob {
	b := h.B
	r := newTriReducer(h, b*b, true)
	return edgeJob{
		Name:    fmt.Sprintf("multiway shares=(%d,%d,%d)", b, b, b),
		Blocks:  b * b,
		Map:     multiwayMapper{h}.Map,
		Keys:    func(yield func(graph.BucketKey, []int32)) { multiwayKeys(b, yield) },
		Prepare: r.prepare,
		Reduce:  r.reduce,
		Release: releaseTriWorker,
		Codec:   graph.EdgeKeyCodec{P: 3},
	}
}

// multiwayMapper stores an edge (u < v by canonical orientation) in the
// block of its ordered bucket pair.
type multiwayMapper struct{ h graph.NodeHash }

//lint:hotpath
func (m multiwayMapper) Map(e graph.Edge, emit func(int, graph.Edge)) {
	emit(m.h.Bucket(e.U)*m.h.B+m.h.Bucket(e.V), e)
}

// multiwayKeys lists the b³ Multiway reducers with the distinct blocks among
// the three each one joins.
func multiwayKeys(b int, yield func(graph.BucketKey, []int32)) {
	var blocks [3]int32
	for x := 0; x < b; x++ {
		for y := 0; y < b; y++ {
			for z := 0; z < b; z++ {
				n := 0
				for _, blk := range [3]int32{int32(x*b + y), int32(y*b + z), int32(x*b + z)} {
					if !slices.Contains(blocks[:n], blk) {
						blocks[n] = blk
						n++
					}
				}
				yield(tupleKey(x, y, z), blocks[:n])
			}
		}
	}
}

// tupleKey is the Multiway reducer (x, y, z): lane v is variable v's bucket.
func tupleKey(x, y, z int) (k graph.BucketKey) {
	k.Set(0, x)
	k.Set(1, y)
	k.Set(2, z)
	return k
}

// triReducer is the reduce side of both algorithms: the triangle's one CQ,
// E(X,Y) & E(X,Z) & E(Y,Z) & X<Y & Y<Z, run by the rank kernel over each
// reducer's edges merged as a graph.Fragment from its blocks, each laid out
// once in id order — the layout and the kernel the core strategies use.
type triReducer struct {
	evals *cq.EvaluatorSet
	h     graph.NodeHash
	// lanes marks Multiway: the triangle a < b < c belongs to reducer
	// (h(a), h(b), h(c)), where its edges play the roles XY, YZ and XZ, so
	// the kernel binds X, Y and Z only to nodes of the key's lanes
	// (laneMask). Partition's kernel binds every triangle of the group, and
	// the one whose canonical group triple is the key is kept.
	lanes bool
	runs  graph.BlockRuns
}

// triangleEvals is the triangle's compiled CQ, built once per process: the
// set is immutable, so every job shares it.
var triangleEvals = sync.OnceValue(func() *cq.EvaluatorSet {
	qs, err := cq.OrbitCQs(sample.Triangle())
	if err != nil {
		panic(err) // the triangle has 3 nodes and 3 edges
	}
	return cq.NewEvaluatorSet(qs)
})

func newTriReducer(h graph.NodeHash, blocks int, lanes bool) *triReducer {
	return &triReducer{triangleEvals(), h, lanes, graph.NewBlockRuns(blocks, graph.NaturalKey)}
}

// triWorker is what one reduce worker keeps in its Context's Local slot
// across its reducer calls: the workspace — the fragment (which also holds
// the blocks this worker prepared) and the kernel's scratch, sized by the
// largest group seen, taken from the free list and returned to it after
// the job — so a warmed call allocates nothing.
type triWorker struct {
	r *triReducer
	cq.Workspace
	key  graph.BucketKey // the call in progress
	emit func([3]graph.Node)
}

// worker returns the worker slot of ctx, setting it up on first use.
func (r *triReducer) worker(ctx *mapreduce.Context) *triWorker {
	w, _ := ctx.Local.(*triWorker)
	if w == nil {
		w = &triWorker{r: r, Workspace: cq.TakeWorkspace()}
		w.Scratch.Stop = ctx.Stopped
		ctx.Local = w
	}
	return w
}

// releaseTriWorker returns a worker's workspace to the free list once the
// job's workers are joined.
func releaseTriWorker(ctx *mapreduce.Context) {
	if w, _ := ctx.Local.(*triWorker); w != nil {
		cq.PutWorkspace(&w.Workspace)
	}
}

// prepare lays one block out in id order, once per job.
func (r *triReducer) prepare(ctx *mapreduce.Context, block int, edges []graph.Edge) {
	r.worker(ctx).Frag.Prepare(&r.runs, block, edges)
}

// reduce merges one reducer's fragment from its blocks and evaluates the
// triangle CQ over it.
func (r *triReducer) reduce(ctx *mapreduce.Context, key graph.BucketKey, edges []graph.Edge, emit func([3]graph.Node)) {
	w := r.worker(ctx)
	w.key, w.emit = key, emit
	w.Frag.Merge(edges, &r.runs, ctx.Blocks)
	if r.lanes {
		if n := w.Frag.NumNodes(); cap(w.Mask) < n {
			w.Mask = make([]uint16, 2*n) // headroom, as the fragment keeps
		}
		w.Scratch.Own.Mask = w.laneMask()
	}
	ctx.AddWork(r.evals.Eval(&w.Frag, &w.Scratch, w.match))
}

// laneMask is Multiway's ownership rule for the call in progress: bit v of
// rank r's word is set iff r's node hashes to the key's lane v, the bucket
// of variable v.
//
//lint:hotpath
func (w *triWorker) laneMask() []uint16 {
	mask := w.Mask[:w.Frag.NumNodes()]
	for r := range mask {
		h := byte(w.r.h.Bucket(w.Frag.ID(int32(r))))
		var m uint16
		for v := range 3 {
			if w.key[v] == h {
				m |= 1 << v
			}
		}
		mask[r] = m
	}
	return mask
}

// match receives a triangle the kernel bound, as ranks X < Y < Z, and emits
// it id-sorted if this reducer keeps it.
//
//lint:hotpath
func (w *triWorker) match(ranks []int32) {
	a, b, c := w.Frag.ID(ranks[0]), w.Frag.ID(ranks[1]), w.Frag.ID(ranks[2])
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	if w.r.lanes || canonicalGroupTriple(w.r.h, w.r.h.B, a, b, c) == w.key {
		w.emit([3]graph.Node{a, b, c})
	}
}

// partitionCommPerEdge is the exact expected per-edge communication of
// Partition: (1/b)·C(b-1,2) + ((b-1)/b)·(b-2) = 3(b-1)(b-2)/(2b).
func partitionCommPerEdge(b int) float64 {
	fb := float64(b)
	return 3 * (fb - 1) * (fb - 2) / (2 * fb)
}

func multiwayCommPerEdge(b int) float64 { return float64(3*b - 2) }

func partitionReducers(b int) int64 {
	return int64(b) * int64(b-1) * int64(b-2) / 6
}

func multiwayReducers(b int) int64 { return int64(b) * int64(b) * int64(b) }

// Fig1CommPerEdge returns the asymptotic Fig. 1 communication costs per
// edge for k reducers: Partition 3·∛(6k)/2, Multiway 3·∛k, and Section 2.3's
// bucket-ordered algorithm ∛(6k).
func Fig1CommPerEdge(k float64) (partition, multiway, bucketOrdered float64) {
	c6k := math.Cbrt(6 * k)
	return 3 * c6k / 2, 3 * math.Cbrt(k), c6k
}
