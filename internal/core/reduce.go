package core

import (
	"subgraphmr/internal/cq"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
)

// enumReducer is the reduce side of one enumeration job, shared by all of
// its reduce workers: the compiled CQ set, the node order the job's
// fragments are laid out in, and the rule by which exactly one reducer owns
// each match. A bucket-oriented job (hashes nil) orders nodes by
// (bucket, id) and owns a match whose bucket multiset is the reducer key; a
// share job orders them by id and owns a match whose node for variable v
// hashes, under hashes[v], to the key's lane v. The kernel enforces the
// rule while binding (cq.Ownership); owns re-checks each match it emits.
type enumReducer struct {
	evals  *cq.EvaluatorSet
	order  func(graph.Node) uint64 // graph.Fragment key of the node order
	hashes []graph.NodeHash
	ms     *matchSink
	// reject, when set (tests set it), is told of every raw match owns
	// turns away — none, while the kernel prunes what it should.
	reject func(ranks []int32)
}

// reduceWorker is what one reduce worker keeps, in its Context's Local slot,
// across all the reducer calls it makes: the fragment, the share mask and
// the evaluator scratch are sized by the largest group seen and reused, so
// a call allocates nothing but the instances it emits.
type reduceWorker struct {
	job     *enumReducer
	frag    graph.Fragment
	mask    []uint16 // share jobs: one ownership word per rank
	scratch cq.Scratch

	// The call in progress.
	key  graph.BucketKey
	emit func([]graph.Node)
}

// reduce evaluates the job's CQs over one key's edges: the fragment is
// built once in the job's node order, the key becomes the kernel's
// ownership rule, the kernel runs on ranks, and owns passes on its matches.
func (r *enumReducer) reduce(ctx *mapreduce.Context, key graph.BucketKey, edges []graph.Edge, emit func([]graph.Node)) {
	w, _ := ctx.Local.(*reduceWorker)
	if w == nil {
		w = &reduceWorker{job: r}
		// A reducer in the middle of a hub's group gives up once nobody
		// wants its output.
		w.scratch.Stop = ctx.Stopped
		w.scratch.Own.Multiset = r.hashes == nil
		ctx.Local = w
	}
	w.key, w.emit = key, emit
	w.frag.Build(edges, r.order)
	if r.hashes != nil {
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
// of rank r's word is set iff r's node hashes to the key's lane v — n×p
// hashes per call.
//
//lint:hotpath
func (w *reduceWorker) ownMask() []uint16 {
	mask := w.mask[:w.frag.NumNodes()]
	for r := range mask {
		u := w.frag.ID(int32(r))
		var m uint16
		for v, h := range w.job.hashes {
			if h.Bucket(u) == int(w.key[v]) {
				m |= 1 << v
			}
		}
		mask[r] = m
	}
	return mask
}

// owns receives every raw match of the reducer call in progress, checks
// that this reducer owns it — the kernel pruned every other, so this is a
// guard — and passes it on as a count or as a fresh instance of node ids.
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
	phi := append([]graph.Node(nil), ranks...)
	for v, r := range phi {
		phi[v] = w.frag.ID(r)
	}
	w.emit(phi)
}

// owned applies the job's ownership rule to a complete match.
//
//lint:hotpath
func (w *reduceWorker) owned(ranks []int32) bool {
	if hashes := w.job.hashes; hashes != nil {
		for v, r := range ranks {
			if hashes[v].Bucket(w.frag.ID(r)) != int(w.key[v]) {
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
