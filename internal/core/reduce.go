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
// hashes, under hashes[v], to the key's lane v.
type enumReducer struct {
	evals  *cq.EvaluatorSet
	order  func(graph.Node) uint64 // graph.Fragment key of the node order
	hashes []graph.NodeHash
	ms     *matchSink
}

// reduceWorker is what one reduce worker keeps, in its Context's Local slot,
// across all the reducer calls it makes: the fragment and the evaluator
// scratch are sized by the largest group seen and reused, so a call
// allocates nothing but the instances it emits.
type reduceWorker struct {
	job     *enumReducer
	frag    graph.Fragment
	scratch cq.Scratch

	// The call in progress.
	key  graph.BucketKey
	emit func([]graph.Node)
}

// reduce evaluates the job's CQs over one key's edges: the fragment is
// built once in the job's node order, the kernel runs on ranks, and owns
// filters the raw matches.
func (r *enumReducer) reduce(ctx *mapreduce.Context, key graph.BucketKey, edges []graph.Edge, emit func([]graph.Node)) {
	w, _ := ctx.Local.(*reduceWorker)
	if w == nil {
		w = &reduceWorker{job: r}
		// A reducer in the middle of a hub's group gives up once nobody
		// wants its output.
		w.scratch.Stop = ctx.Stopped
		ctx.Local = w
	}
	w.key, w.emit = key, emit
	w.frag.Build(edges, r.order)
	ctx.AddWork(r.evals.Eval(&w.frag, &w.scratch, w.owns))
}

// owns receives every raw match of the reducer call in progress and passes
// on — as a count, or as a fresh instance of node ids — the ones this
// reducer owns.
//
//lint:hotpath
func (w *reduceWorker) owns(ranks []int32) {
	if hashes := w.job.hashes; hashes != nil {
		for v, r := range ranks {
			if hashes[v].Bucket(w.frag.ID(r)) != int(w.key[v]) {
				return
			}
		}
	} else {
		var buckets [graph.MaxKeyVars]int
		for v, r := range ranks {
			buckets[v] = w.frag.Major(r)
		}
		if graph.MultisetKey(buckets[:len(ranks)]...) != w.key {
			return
		}
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
