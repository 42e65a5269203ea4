// Package triangle implements the three single-round map-reduce
// triangle-enumeration algorithms of Section 2:
//
//   - Partition — the algorithm of Suri & Vassilvitskii (Section 2.1):
//     nodes are split into b groups, one reducer per 3-subset of groups,
//     communication ≈ 3bm/2.
//   - Multiway — the plain multiway join E(X,Y) ⋈ E(Y,Z) ⋈ E(X,Z) of
//     Afrati & Ullman (Section 2.2): b³ reducers, communication (3b−2)m.
//   - BucketOrdered — the paper's improvement (Section 2.3): nodes ordered
//     by (bucket, id), one reducer per nondecreasing bucket triple
//     (C(b+2,3) of them), communication exactly bm.
//
// All three enumerate every triangle exactly once; ownership filters
// reproduce the papers' "discovered by only one reducer" arguments.
package triangle

import (
	"context"
	"fmt"
	"math"
	"slices"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
)

// Algo is one of the three Section 2 algorithms: its closed forms and, behind
// Run and ProbeLoads, the one job both execution and the planner's load
// probes are built from — so a probe observes exactly the loads a run ships
// and both reject the same bucket counts. The three values Partition,
// Multiway and BucketOrdered are the whole set (see Algos).
type Algo struct {
	// Name is the algorithm's short name: "partition", "multiway", "bucket".
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
	// BucketOrdered is the paper's improvement (Section 2.3): C(b+2,3)
	// useful reducers (Theorem 4.2 with p = 3), communication b per edge.
	BucketOrdered = Algo{"bucket", 1, bucketOrderedCommPerEdge, bucketOrderedReducers, bucketOrderedJob}

	// Algos lists the three algorithms.
	Algos = []Algo{Partition, Multiway, BucketOrdered}
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
// least MinB) — the Fig. 1 bucket choices b = ∛(6k) for Partition and
// BucketOrdered, b = ∛k for Multiway.
func (a Algo) BucketsFor(k int64) int {
	b := a.MinB
	for a.Reducers(b+1) <= k {
		b++
	}
	return b
}

// ProbeLoads is Algo.ProbeLoads by algorithm name ("partition", "multiway"
// or "bucket").
func ProbeLoads(g *graph.Graph, algo string, b int, seed uint64, cfg mapreduce.Config) (mapreduce.LoadStats, error) {
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

// pairMapper stores an edge in the block of its unordered bucket pair — the
// map side of Partition and BucketOrdered, whose reducers are bucket sets.
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
	return edgeJob{
		Name:   fmt.Sprintf("partition b=%d", b),
		Blocks: graph.PairBlocks(b),
		Map:    pairMapper{h}.Map,
		Keys:   func(yield func(graph.BucketKey, []int32)) { partitionKeys(b, yield) },
		Reduce: newTriReducer(h, true).reduce,
		Codec:  graph.EdgeKeyCodec{P: 3},
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
// is structural. The reducer reads an edge's roles off its two buckets.
func multiwayJob(h graph.NodeHash) edgeJob {
	b := h.B
	return edgeJob{
		Name:   fmt.Sprintf("multiway shares=(%d,%d,%d)", b, b, b),
		Blocks: b * b,
		Map:    multiwayMapper{h}.Map,
		Keys:   func(yield func(graph.BucketKey, []int32)) { multiwayKeys(b, yield) },
		Reduce: func(ctx *mapreduce.Context, key graph.BucketKey, edges []graph.Edge, emit func([3]graph.Node)) {
			// Role-structured join: X=u, Y=v, Z=w with E(u,v) as XY, E(v,w) as
			// YZ, E(u,w) as XZ (each pair id-ordered).
			x, y, z := int(key[0]), int(key[1]), int(key[2])
			var xy []graph.Edge
			yzByFirst := make(map[graph.Node][]graph.Node)
			xz := make(map[uint64]bool)
			for _, e := range edges {
				hu, hv := h.Bucket(e.U), h.Bucket(e.V)
				if hu == x && hv == y {
					xy = append(xy, e)
				}
				if hu == y && hv == z {
					yzByFirst[e.U] = append(yzByFirst[e.U], e.V)
				}
				if hu == x && hv == z {
					xz[e.Key()] = true
				}
			}
			for _, e := range xy {
				for _, w := range yzByFirst[e.V] {
					ctx.AddWork(1)
					if xz[(graph.Edge{U: e.U, V: w}).Key()] {
						emit([3]graph.Node{e.U, e.V, w})
					}
				}
			}
		},
		Codec: graph.EdgeKeyCodec{P: 3},
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

// bucketOrderedJob is the Section 2.3 algorithm — Section 4.5's at p = 3:
// nodes are ordered by (bucket, id); reducers are the nondecreasing bucket
// triples; each edge reaches the b triples containing both endpoint
// buckets; the triangle (u ≺ v ≺ w) is owned by the
// reducer of its sorted bucket triple.
func bucketOrderedJob(h graph.NodeHash) edgeJob {
	return edgeJob{
		Name:   fmt.Sprintf("bucket-ordered b=%d", h.B),
		Blocks: graph.PairBlocks(h.B),
		Map:    pairMapper{h}.Map,
		Keys:   func(yield func(graph.BucketKey, []int32)) { graph.MultisetKeys(3, h.B, yield) },
		Reduce: newTriReducer(h, false).reduce,
		Codec:  graph.EdgeKeyCodec{P: 3},
	}
}

// triReducer is the reduce side of Partition and BucketOrdered: the
// triangle's one CQ, E(X,Y) & E(X,Z) & E(Y,Z) & X<Y & Y<Z, run by the rank
// kernel over each group laid out as a graph.Fragment in the job's node
// order — the layout and the kernel the core strategies use.
type triReducer struct {
	evals *cq.EvaluatorSet
	h     graph.NodeHash
	order func(graph.Node) uint64 // graph.Fragment key of the node order
	// partition selects Partition's rule: id order, every triangle of the
	// group bound, the one whose canonical group triple is the key kept.
	// Otherwise BucketOrdered's: (bucket, id) order, the kernel binding
	// only the triangles whose bucket multiset is the key.
	partition bool
}

func newTriReducer(h graph.NodeHash, partition bool) *triReducer {
	order := h.Key
	if partition {
		order = graph.NaturalKey
	}
	return &triReducer{cq.NewEvaluatorSet(cq.GenerateForSample(sample.Triangle())), h, order, partition}
}

// triWorker is what one reduce worker keeps in its Context's Local slot
// across its reducer calls: the fragment and the kernel's scratch, sized by
// the largest group seen, so a warmed call allocates nothing.
type triWorker struct {
	r       *triReducer
	frag    graph.Fragment
	scratch cq.Scratch
	key     graph.BucketKey // the call in progress
	emit    func([3]graph.Node)
}

func (r *triReducer) reduce(ctx *mapreduce.Context, key graph.BucketKey, edges []graph.Edge, emit func([3]graph.Node)) {
	w, _ := ctx.Local.(*triWorker)
	if w == nil {
		w = &triWorker{r: r}
		w.scratch.Stop = ctx.Stopped
		w.scratch.Own.Multiset = !r.partition
		ctx.Local = w
	}
	ctx.AddWork(w.run(key, edges, emit))
}

// run lays one group out and evaluates the triangle CQ over it, returning
// the kernel's work.
//
//lint:hotpath
func (w *triWorker) run(key graph.BucketKey, edges []graph.Edge, emit func([3]graph.Node)) int64 {
	w.key, w.emit = key, emit
	w.scratch.Own.Key = key // read only by BucketOrdered's multiset rule
	w.frag.Build(edges, w.r.order)
	return w.r.evals.Eval(&w.frag, &w.scratch, w.match)
}

// match receives a triangle the kernel bound, as ranks X < Y < Z, and emits
// it id-sorted if this reducer keeps it.
//
//lint:hotpath
func (w *triWorker) match(ranks []int32) {
	a, b, c := w.frag.ID(ranks[0]), w.frag.ID(ranks[1]), w.frag.ID(ranks[2])
	if w.r.partition && canonicalGroupTriple(w.r.h, w.r.h.B, a, b, c) != w.key {
		return
	}
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	w.emit([3]graph.Node{a, b, c})
}

// partitionCommPerEdge is the exact expected per-edge communication of
// Partition: (1/b)·C(b-1,2) + ((b-1)/b)·(b-2) = 3(b-1)(b-2)/(2b).
func partitionCommPerEdge(b int) float64 {
	fb := float64(b)
	return 3 * (fb - 1) * (fb - 2) / (2 * fb)
}

func multiwayCommPerEdge(b int) float64 { return float64(3*b - 2) }

func bucketOrderedCommPerEdge(b int) float64 { return float64(b) }

func partitionReducers(b int) int64 {
	return int64(b) * int64(b-1) * int64(b-2) / 6
}

func multiwayReducers(b int) int64 { return int64(b) * int64(b) * int64(b) }

func bucketOrderedReducers(b int) int64 {
	return int64(b+2) * int64(b+1) * int64(b) / 6
}

// Fig1CommPerEdge returns the asymptotic Fig. 1 communication costs per
// edge for k reducers: Partition 3·∛(6k)/2, Multiway 3·∛k, BucketOrdered
// ∛(6k).
func Fig1CommPerEdge(k float64) (partition, multiway, bucketOrdered float64) {
	c6k := math.Cbrt(6 * k)
	return 3 * c6k / 2, 3 * math.Cbrt(k), c6k
}
