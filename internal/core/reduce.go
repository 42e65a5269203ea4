package core

import (
	"encoding/binary"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
)

// enumReducer is the reduce side of one enumeration job, shared by all of
// its reduce workers: the compiled CQ set, the job's blocks laid out once
// each in its node order, and the rule by which exactly one reducer owns
// each match. A bucket-oriented job (lanes nil) orders nodes by
// (bucket, id) and owns a match whose bucket multiset is the reducer key; a
// share job orders them by id and owns a match whose node for variable v
// hashes, under the job's hash for v, to the key's lane v. The kernel
// enforces the rule while binding (cq.Ownership); owns re-checks each match
// it emits.
type enumReducer struct {
	evals *cq.EvaluatorSet
	runs  graph.BlockRuns
	// lanes is a share job's lane table: lanes[u*p+v] is node u's bucket
	// under the hash of variable v, computed once per job so that no
	// reducer call hashes; laneSlack zero bytes end it, so a node's lanes
	// can be read as whole words.
	lanes []byte
	p     int // share jobs: the number of variables, lanes per node
	ms    *matchSink
	// reject, when set (tests set it), is told of every raw match owns
	// turns away — none, while the kernel prunes what it should.
	reject func(ranks []int32)
}

// newBucketReducer is the reducer of a bucket-oriented job under the
// scheme's hash: nodes in (bucket, id) order, as in Section 2.3.
func newBucketReducer(evals *cq.EvaluatorSet, s bucketScheme, ms *matchSink) *enumReducer {
	return &enumReducer{evals: evals, runs: graph.NewBlockRuns(s.blocks(), s.h.Key), ms: ms}
}

// newShareReducer is the reducer of a share job over g: nodes in id order,
// ownership read off the lane table of the scheme's hashes.
func newShareReducer(evals *cq.EvaluatorSet, s *shareScheme, g *graph.Graph, ms *matchSink) *enumReducer {
	p := len(s.hashes)
	lanes := make([]byte, g.NumNodes()*p+laneSlack)
	for u := range g.NumNodes() {
		for v, h := range s.hashes {
			lanes[u*p+v] = byte(h.Bucket(graph.Node(u)))
		}
	}
	return &enumReducer{evals: evals, runs: graph.NewBlockRuns(s.blocks(), graph.NaturalKey), lanes: lanes, p: p, ms: ms}
}

// laneSlack pads a lane table for ownMask's word reads past its last node.
const laneSlack = graph.MaxKeyVars

// side returns job with its Prepare and Reduce set to this reducer's.
func (r *enumReducer) side(job enumJob) enumJob {
	job.Prepare, job.Reduce = r.prepare, r.reduce
	return job
}

// reduceWorker is what one reduce worker keeps, in its Context's Local slot,
// across all the reducer calls it makes: the fragment (which also holds the
// blocks this worker prepared), the share mask and the evaluator scratch,
// sized by the largest group seen and reused, and the slab its instances
// are carved from, so a call allocates nothing but a slab chunk per 256
// instances it emits.
type reduceWorker struct {
	job     *enumReducer
	frag    graph.Fragment
	mask    []uint16 // share jobs: one ownership word per rank
	scratch cq.Scratch
	slab    graph.Slab

	// The call in progress.
	key  graph.BucketKey
	emit func([]graph.Node)
}

// worker returns the worker slot of ctx, setting it up on first use.
func (r *enumReducer) worker(ctx *mapreduce.Context) *reduceWorker {
	w, _ := ctx.Local.(*reduceWorker)
	if w == nil {
		w = &reduceWorker{job: r}
		// A reducer in the middle of a hub's group gives up once nobody
		// wants its output.
		w.scratch.Stop = ctx.Stopped
		w.scratch.Own.Multiset = r.lanes == nil
		ctx.Local = w
	}
	return w
}

// prepare lays one block out in the job's node order, once per job.
func (r *enumReducer) prepare(ctx *mapreduce.Context, block int, edges []graph.Edge) {
	r.worker(ctx).frag.Prepare(&r.runs, block, edges)
}

// reduce evaluates the job's CQs over one key's edges: the fragment is
// merged from the runs of the task's blocks, the key becomes the kernel's
// ownership rule, the kernel runs on ranks, and owns passes on its matches.
func (r *enumReducer) reduce(ctx *mapreduce.Context, key graph.BucketKey, edges []graph.Edge, emit func([]graph.Node)) {
	w := r.worker(ctx)
	w.key, w.emit = key, emit
	w.frag.Merge(edges, &r.runs, ctx.Blocks)
	if r.lanes != nil {
		if n := w.frag.NumNodes(); cap(w.mask) < n {
			w.mask = make([]uint16, 2*n) // headroom, as the fragment keeps
		}
		w.scratch.Own.Mask = w.ownMask()
	} else {
		w.scratch.Own.Key = key
	}
	ctx.AddWork(r.evals.Eval(&w.frag, &w.scratch, w.owns))
}

// ownMask is a share job's ownership rule for the call in progress: bit v
// of rank r's word is set iff r's node lies in the key's lane v. A node's
// lanes are compared with the key's eight at a time, as words: a lane
// matches where their xor has a zero byte.
//
//lint:hotpath
func (w *reduceWorker) ownMask() []uint16 {
	p, lanes := w.job.p, w.job.lanes
	lo, hi := binary.LittleEndian.Uint64(w.key[:8]), binary.LittleEndian.Uint64(w.key[8:])
	valid := uint16(1<<p - 1)
	mask := w.mask[:w.frag.NumNodes()]
	for r := range mask {
		i := int(w.frag.ID(int32(r))) * p
		m := zeroBytes(binary.LittleEndian.Uint64(lanes[i:]) ^ lo)
		if p > 8 {
			m |= zeroBytes(binary.LittleEndian.Uint64(lanes[i+8:])^hi) << 8
		}
		mask[r] = uint16(m) & valid
	}
	return mask
}

// zeroBytes returns the bitmask of x's zero bytes: bit i is set iff byte i
// (little-endian) is zero.
func zeroBytes(x uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	y := ^(x&low7 + low7 | x | low7) // 0x80 in each zero byte, 0 elsewhere
	return (y >> 7) * 0x0102040810204080 >> 56
}

// owns receives every raw match of the reducer call in progress, checks
// that this reducer owns it — the kernel pruned every other, so this is a
// guard — and passes it on as a count or as an instance of node ids that
// the sink may keep.
//
//lint:hotpath
func (w *reduceWorker) owns(ranks []int32) {
	if !w.owned(ranks) {
		if w.job.reject != nil {
			w.job.reject(ranks)
		}
		return
	}
	if w.job.ms.counting() {
		w.job.ms.count()
		return
	}
	// ranks is the evaluator's scratch: only an owned match that actually
	// leaves the reducer becomes an instance.
	phi := w.slab.Take(len(ranks))
	for v, r := range ranks {
		phi[v] = w.frag.ID(r)
	}
	w.emit(phi)
}

// owned applies the job's ownership rule to a complete match.
//
//lint:hotpath
func (w *reduceWorker) owned(ranks []int32) bool {
	if lanes := w.job.lanes; lanes != nil {
		for v, r := range ranks {
			if lanes[int(w.frag.ID(r))*w.job.p+v] != w.key[v] {
				return false
			}
		}
		return true
	}
	var buckets [graph.MaxKeyVars]int
	for v, r := range ranks {
		buckets[v] = w.frag.Major(r)
	}
	return graph.MultisetKey(buckets[:len(ranks)]...) == w.key
}
