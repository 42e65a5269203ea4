// Package mapreduce is an in-process map-reduce engine with explicit
// shuffle semantics and cost accounting. It stands in for the Hadoop-style
// cluster the paper assumes.
//
// The engine reproduces exactly the quantities the paper measures:
//
//   - Communication cost — the number of key-value pairs shipped from the
//     mappers to the reducers (every pair emitted by a mapper counts once).
//   - Number of reducers — the number of distinct keys (the paper's "what we
//     are actually measuring is the number of different keys").
//   - Computation cost — reducers report abstract work units through their
//     context; the engine aggregates them so Section 6's convertibility
//     claims (total reducer work = Θ(serial work)) can be tested.
//
// Execution is pipelined and hash-partitioned: mappers stream emitted pairs
// into P fixed partitions through per-partition channels, and each reduce
// worker owns one partition, taking in its pairs concurrently with the map
// phase and grouping them one hash bucket at a time once the phase ends.
// There is no global merge map and no barrier between the phases, so peak
// memory is bounded by the largest partition rather than by the total
// communication cost. Like the paper's algorithms, a job has no
// combiner and no custom partitioner: every emitted pair is shipped, and
// the reported metrics are fully deterministic (they do not depend on
// worker count or partition assignment).
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"subgraphmr/internal/failpoint"
)

// Metrics aggregates the cost measures of one map-reduce job.
type Metrics struct {
	// KeyValuePairs is the communication cost: every (key, value) shipped
	// from a mapper to a reducer counts once, so it equals the number of
	// pairs the mappers emitted (and, under Config.Dist, kept).
	KeyValuePairs int64
	// DistinctKeys is the number of reducers that receive at least one pair.
	DistinctKeys int64
	// MaxReducerInput is the largest number of values any single reducer
	// received (the "curse of the last reducer" measure).
	MaxReducerInput int64
	// ReducerWork is the sum of work units reported by all reducers via
	// Context.AddWork.
	ReducerWork int64
	// Outputs is the total number of values emitted by reducers.
	Outputs int64
	// SpilledPairs is the number of key-value pairs the external shuffle
	// moved from reduce-worker memory to spill runs (zero when
	// Config.MemoryBudget is unset or never exceeded). Each pair counts
	// once, however many merge passes later rewrite it.
	SpilledPairs int64
	// SpillBytes is the total bytes written to spill runs, including
	// intermediate merge passes.
	SpillBytes int64
	// SpillFiles is the number of spill runs written, including
	// intermediate merge outputs. A reduce worker appends all of its runs to
	// one spill file, which is removed before Run returns.
	SpillFiles int64
}

// Skew is the observed load imbalance of the job: MaxReducerInput divided
// by the mean reducer input (KeyValuePairs / DistinctKeys). A perfectly
// balanced shuffle has skew 1; the "curse of the last reducer" shows up as
// skew ≫ 1. Zero when the job shipped nothing.
func (m Metrics) Skew() float64 {
	if m.DistinctKeys == 0 || m.KeyValuePairs == 0 {
		return 0
	}
	mean := float64(m.KeyValuePairs) / float64(m.DistinctKeys)
	return float64(m.MaxReducerInput) / mean
}

// Add accumulates other into m (for summing metrics across jobs).
func (m *Metrics) Add(other Metrics) {
	m.KeyValuePairs += other.KeyValuePairs
	m.DistinctKeys += other.DistinctKeys
	if other.MaxReducerInput > m.MaxReducerInput {
		m.MaxReducerInput = other.MaxReducerInput
	}
	m.ReducerWork += other.ReducerWork
	m.Outputs += other.Outputs
	m.SpilledPairs += other.SpilledPairs
	m.SpillBytes += other.SpillBytes
	m.SpillFiles += other.SpillFiles
}

// Context is handed to each reducer invocation so it can report abstract
// computation work (e.g. candidate assignments examined). A job creates one
// Context per reduce worker and passes it to every reducer call that worker
// makes, so it is also where a reducer keeps storage across its calls.
type Context struct {
	// Local is the reducer's own slot: whatever a reducer call stores here,
	// the same worker's later calls find again (a reusable fragment, scratch
	// buffers). The engine never reads it. It is reachable only through the
	// job's Contexts, and a BlockJob hands each one to its Release once the
	// job's workers are joined: storage that should outlive the job goes
	// back to a bounded free list there, the rest dies with the job.
	Local any
	// Blocks is, during a block job's reducer call, the blocks its task
	// reads that hold values — the ones the values were gathered from, each
	// already through the job's Prepare — and nil in a plain Job. The engine
	// sets it before every call; a reducer only reads it.
	Blocks []int32

	work int64
	stop *atomic.Bool // the job's cooperative stop flag; nil outside a job
}

// AddWork records n units of reducer computation.
func (c *Context) AddWork(n int64) { c.work += n }

// Stopped reports whether the job no longer wants output: the consumer's
// yield returned false, ctx was cancelled, or a worker failed. Outputs
// emitted after that are dropped, so a reducer in the middle of a large
// group should poll it — per outer-loop iteration, not per pair — and
// return early.
func (c *Context) Stopped() bool { return c.stop != nil && c.stop.Load() }

// Mapper transforms one input element into key-value pairs via emit.
type Mapper[I any, K comparable, V any] func(input I, emit func(K, V))

// Reducer consumes all values grouped under one key. The values slice is
// only valid for the duration of the call — the engine may reuse its
// backing storage — so a reducer that wants to keep values past its return
// must copy them.
type Reducer[K comparable, V any, O any] func(ctx *Context, key K, values []V, emit func(O))

// Config controls engine execution.
type Config struct {
	// Parallelism is the number of map worker goroutines;
	// 0 means GOMAXPROCS.
	Parallelism int
	// Partitions is the number of shuffle partitions, each owned by one
	// reduce worker goroutine; 0 means Parallelism.
	Partitions int
	// MemoryBudget bounds, in heap bytes, the shuffle state the reduce
	// workers of a plain Job hold, summed across all partitions; 0 means
	// unlimited (no spilling; pairs are hash-grouped in memory). Each
	// worker gets an equal share. With a budget a worker appends arriving
	// pairs to one flat buffer; when what the buffer costs crosses the
	// share it is radix-sorted by key and appended as one run to the
	// worker's spill file, and the round finishes with a k-way merge that
	// streams each key's values into the reducer (a worker that never
	// crosses reduces from its sorted buffer, no file written). Inside the
	// share: the buffered pairs, the sort scratch (16 bytes a pair), the run
	// write buffer (a sixteenth of the share) and, once merging, the run
	// read buffers (the share split between the merged runs) — each I/O
	// buffer between 4 and 64 KiB, so a share below 4 KiB a run is exceeded
	// by that floor. Outside it: heap data a key or value references (only
	// a job with its own Codec can have such types), the largest single key
	// group (a reducer receives it as one []V) and whatever the consumer
	// keeps of the output. On disk, a worker's spill file grows to its
	// share of Metrics.SpillBytes: the runs a merge pass folds are reclaimed
	// only when the round ends. Outputs and the core metrics are identical
	// to the in-memory path; the Spill* metrics record the extra I/O. A
	// budget needs a codec whose keys encode to 8 bytes — Job.Codec, or
	// DefaultCodec for integer keys — or the run fails before any worker
	// starts; spill I/O failures surface as a typed *EngineError from
	// RunStream. A BlockJob holds no pairs — each value sits once in its
	// input-sized block table — so it ignores the budget and never spills.
	// In a pipe (RunPipe) the budget bounds both rounds together: the first
	// round's workers buffer in their whole share; at the barrier a worker
	// that never spilled keeps its buffer, one that spilled keeps a reserve
	// of its share for its merge read buffers — a sixteenth of it, at most
	// 64 KiB — and the second round's worker p buffers in the share less
	// what the first round's worker p keeps.
	MemoryBudget int64
	// SpillDir is the directory for spill files; "" means the system
	// temp dir. Only a plain Job under a MemoryBudget uses it.
	SpillDir string
	// Dist, when set, restricts the run to the owned slices of the
	// distributed key space: mapper emissions whose key hashes outside them
	// are dropped before they are counted or shipped, so the reported
	// metrics describe only the owned share. See DistFilter.
	Dist *DistFilter
}

// batchSize is the number of pairs a mapper buffers per partition before
// shipping them as one batch.
const batchSize = 256

func (c Config) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// ReduceWorkers returns the number of shuffle partitions, each owned by one
// reduce worker: Partitions, else Parallelism, else GOMAXPROCS. The planner
// sizes its default reducer budget from it.
func (c Config) ReduceWorkers() int {
	if c.Partitions > 0 {
		return c.Partitions
	}
	return c.workers()
}

// Job is one map-reduce round. Map and Reduce are required. Codec is the
// key order and spill serialization under Config.MemoryBudget and the key
// encoding of Config.Dist ownership; nil means DefaultCodec. Name labels the
// round in RunPipe's statistics and in errors.
type Job[I any, K comparable, V any, O any] struct {
	Name   string
	Map    Mapper[I, K, V]
	Reduce Reducer[K, V, O]
	Codec  Codec[K, V]
}

// pair is one shuffled key-value pair.
type pair[K comparable, V any] struct {
	key K
	val V
}

// RunStream executes the job, delivering reducer outputs to yield instead
// of materializing them. Calls to yield are serialized (never concurrent)
// and block the emitting reduce worker, so delivery is consumer-paced and
// the outputs never accumulate in memory. A reduce worker's outputs leave
// it in batches (see outbox): the first alone, then 2, 4, … up to 256, each
// batch under one lock. Note the pacing reaches the reduce phase only:
// reduction starts after the map phase completes, so by the first yield
// the shuffled pairs are already grouped in the reduce workers' tables —
// bound that state with Config.MemoryBudget, not with a slow consumer.
// Returning false from yield stops the job early: no further outputs are
// delivered (the rest of that batch included), remaining groups are never
// reduced, a reducer in the middle of its group can see it through
// Context.Stopped, spill files are removed, and RunStream returns the
// partial metrics with a nil error. Cancelling ctx has the same teardown —
// and can additionally interrupt the map phase — but returns ctx.Err(). A
// failing worker first hands on the outputs it emitted before the failure.
// Metrics.Outputs counts only the values yield accepted.
func (j Job[I, K, V, O]) RunStream(ctx context.Context, cfg Config, inputs []I, yield func(O) bool) (Metrics, error) {
	run, release := newRun(ctx, yield)
	defer release()
	r, err := newRound(j, cfg, &run.stop, cfg.mappers(len(inputs)))
	if err != nil {
		return Metrics{}, err
	}
	deliver := run.deliver
	r.startReducers(func(int) func([]O) { return deliver })
	mapInputs(r, inputs, j.Map)
	r.finish()
	return r.metrics(run.yielded), firstError(ctx, r.failures()...)
}

// mappers is the number of map workers a round over n inputs starts.
func (c Config) mappers(n int) int {
	return max(min(c.workers(), n), 1)
}

// round is one Job in flight: its shuffle (partition channels, hash seed,
// batch free list), its reduce workers and what they report. RunStream
// runs one round; RunPipe runs two, the first one's reduce workers mapping
// straight into the second one's shuffle.
type round[I any, K comparable, V any, O any] struct {
	j     Job[I, K, V, O]
	cfg   Config
	codec Codec[K, V]
	seed  maphash.Seed
	stop  *atomic.Bool
	chans []chan []pair[K, V]
	// Shuffle batches cycle through a process-wide per-type free list:
	// senders take recycled buffers, reduce workers return each batch once
	// its pairs are copied into the group table (see recycle.go).
	flist *batchFreeList[K, V]

	// share is each reduce worker's equal slice of Config.MemoryBudget (0:
	// the in-memory path); keep is the part of it a worker that spilled
	// keeps for its merge (spiller.keep), the whole share unless the merge
	// overlaps another round's shuffle.
	share, keep int64
	// sealed, when set, holds every reduce worker between its buffering and
	// its reduce phase until all of them have settled: RunPipe's first
	// round, whose outputs fill the next round's buffers. Under a budget
	// each of its workers records in held what it keeps through its reduce
	// phase, and the next round's worker p buffers in its share less
	// less[p] (the same slice).
	sealed     *sync.WaitGroup
	held, less []int64

	outs    *freeList[O]   // the reduce workers' outbox buffers
	rwg     sync.WaitGroup // reduce workers
	shipped atomic.Int64
	reports []report // one per partition

	mmu  sync.Mutex
	merr error // map side: the first failure
}

// newRound resolves the job's codec and makes its shuffle for the given
// number of goroutines that will ship into it. The codec is resolved once;
// under Dist each sender instantiates its own ownership predicate
// (distOwns keeps a scratch buffer that must not be shared across
// goroutines).
func newRound[I any, K comparable, V any, O any](j Job[I, K, V, O], cfg Config, stop *atomic.Bool, senders int) (*round[I, K, V, O], error) {
	codec, err := jobCodec(j.Name, j.Codec, cfg)
	if err != nil {
		return nil, err
	}
	np := max(cfg.ReduceWorkers(), 1)
	r := &round[I, K, V, O]{
		j: j, cfg: cfg, codec: codec, seed: maphash.MakeSeed(), stop: stop,
		chans:   make([]chan []pair[K, V], np),
		flist:   freeListFor[K, V](),
		outs:    listFor[O](),
		reports: make([]report, np),
	}
	// Two batches in flight per sender let it fill one while the reduce
	// worker takes in the other.
	for p := range r.chans {
		r.chans[p] = make(chan []pair[K, V], 2*senders)
	}
	// External shuffle: with a memory budget, every reduce worker gets an
	// equal share and buffers its pairs in a spiller, which sorts them out
	// as a run to its spill file whenever their footprint crosses it.
	if cfg.MemoryBudget > 0 {
		r.share = max(cfg.MemoryBudget/int64(np), 1)
		r.keep = r.share
	}
	return r, nil
}

// startReducers starts one reduce worker per partition; to(p) is where
// partition p's outputs go.
func (r *round[I, K, V, O]) startReducers(to func(p int) func([]O)) {
	for p := range r.chans {
		r.rwg.Add(1)
		go r.reducer(p, to(p))
	}
}

// reducer is partition p's reduce worker. It takes in batches as they
// arrive (concurrently with mapping) and reduces once its channel closes —
// from the bucketed group table, or with a budget from the spiller's sorted
// buffer or run merge — handing its outputs to to through an outbox. On
// stop it keeps draining its channel (so senders never block forever) but
// skips grouping and reducing.
func (r *round[I, K, V, O]) reducer(p int, to func([]O)) {
	defer r.rwg.Done()
	out := &outbox[O]{to: to, list: r.outs}
	arrived := r.sealed == nil
	arrive := func() { // at the sealed barrier, once on every path
		if !arrived {
			arrived = true
			r.sealed.Done()
		}
	}
	// fail records a typed worker error and keeps draining the partition
	// channel so senders never block on a dead partition (recycling the
	// drained batches as usual).
	fail := func(stage string, cause error) {
		if err := out.drain(); err != nil {
			cause = errors.Join(cause, err)
		}
		r.reports[p].err = engineErr(stage, r.j.Name, cause)
		r.stop.Store(true)
		arrive()
		for batch := range r.chans[p] {
			r.flist.put(batch)
		}
	}
	// A panicking reducer (or spill codec) is recovered once per worker and
	// converted to the same typed error. The spiller's cleanup defer below
	// is registered later, so it has already removed the spill file by the
	// time this recovery runs.
	defer func() {
		if rec := recover(); rec != nil {
			fail(StageReduce, fmt.Errorf("recovered panic: %v", rec))
		}
		arrive()
	}()
	if err := failpoint.Eval(failpoint.ReduceWorker); err != nil {
		fail(StageReduce, err)
		return
	}
	var (
		sp    *spiller[K, V]    // budgeted path
		table *groupTable[K, V] // in-memory path
	)
	if r.share > 0 {
		sp = newSpiller(r.codec, r.cfg.SpillDir, r.share)
		sp.keep = r.keep
		defer sp.cleanup()
	} else {
		table = newGroupTable[K, V](r.seed)
	}
	sized := r.less == nil
	for batch := range r.chans[p] {
		if r.stop.Load() {
			r.flist.put(batch)
			continue // drain without grouping
		}
		if sp != nil {
			if !sized {
				// A pipe's second round: its first batch comes after the
				// first round's barrier, so what worker p of that round
				// keeps is settled.
				sized = true
				sp.size(max(r.share-r.less[p], 1))
			}
			if err := sp.add(batch); err != nil {
				fail(StageSpill, err)
				return
			}
		} else {
			for _, kv := range batch {
				table.add(kv.key, kv.val)
			}
		}
		r.flist.put(batch)
	}
	if sp != nil && !r.stop.Load() {
		held, err := sp.settle()
		if err != nil {
			fail(StageSpill, err)
			return
		}
		if r.held != nil {
			r.held[p] = held
		}
	}
	arrive()
	if r.sealed != nil {
		r.sealed.Wait()
	}
	if r.stop.Load() {
		// Cancelled or stopped early: nothing left to reduce; the deferred
		// cleanup removes the spill file.
		return
	}
	rctx := &Context{stop: r.stop}
	emit := out.emit
	reduce := func(k K, vs []V) bool {
		if r.stop.Load() {
			return false
		}
		r.j.Reduce(rctx, k, vs, emit)
		return true
	}
	if sp != nil {
		d, mi, err := sp.reduce(reduce)
		if err != nil {
			fail(StageSpill, err)
			return
		}
		r.reports[p].m = Metrics{DistinctKeys: d, MaxReducerInput: mi, SpilledPairs: sp.pairs, SpillBytes: sp.bytes, SpillFiles: sp.written}
	} else {
		if !table.group(r.stop) {
			return
		}
		r.reports[p].m.DistinctKeys = int64(table.numKeys())
		r.reports[p].m.MaxReducerInput = table.forEach(reduce)
	}
	out.release()
	r.reports[p].m.ReducerWork = rctx.work
}

// mapInputs maps inputs with mapf into r's shuffle on cfg.mappers
// goroutines, each a contiguous shard, and returns once every shard is
// shipped or dropped. mapf is r's own Map, or in a pipe the side mapper
// over the first round's inputs.
func mapInputs[X, I any, K comparable, V, O any](r *round[I, K, V, O], inputs []X, mapf Mapper[X, K, V]) {
	nm := r.cfg.mappers(len(inputs))
	chunk := (len(inputs) + nm - 1) / nm
	var wg sync.WaitGroup
	for lo := 0; lo < len(inputs); lo += chunk {
		wg.Add(1)
		go func(shard []X) {
			defer wg.Done()
			mapShard(r, shard, mapf)
		}(inputs[lo:min(lo+chunk, len(inputs))])
	}
	wg.Wait()
}

// mapShard is one map worker: it streams its shard's pairs into the
// partition channels. A panicking mapper is recovered once per worker;
// buffered batches are dropped (nobody will reduce them) and the reduce
// workers see stop and drain.
func mapShard[X, I any, K comparable, V, O any](r *round[I, K, V, O], shard []X, mapf Mapper[X, K, V]) {
	s := r.newSender()
	defer func() {
		if rec := recover(); rec != nil {
			r.failMap(fmt.Errorf("recovered panic: %v", rec))
		}
		r.shipped.Add(s.n)
	}()
	if err := failpoint.Eval(failpoint.MapWorker); err != nil {
		r.failMap(err)
		return
	}
	emit := r.emitter(s)
	for i := range shard {
		if r.stop.Load() {
			return // discard buffered pairs: nobody will reduce them
		}
		mapf(shard[i], emit)
	}
	if !r.stop.Load() {
		s.flush()
	}
}

// failMap records a map-side failure (the first one wins) and stops the run.
func (r *round[I, K, V, O]) failMap(cause error) {
	r.mmu.Lock()
	if r.merr == nil {
		r.merr = engineErr(StageMap, r.j.Name, cause)
	}
	r.mmu.Unlock()
	r.stop.Store(true)
}

// newSender returns a sender into the round's shuffle.
func (r *round[I, K, V, O]) newSender() *sender[K, V] {
	return &sender[K, V]{chans: r.chans, flist: r.flist, seed: r.seed, bufs: make([][]pair[K, V], len(r.chans))}
}

// emitter is s's emit, behind the round's ownership filter under
// Config.Dist. The filter comes ahead of the shipped count, so an unowned
// pair leaves no trace in the metrics and N disjoint filtered runs sum to
// exactly one unfiltered run's metrics.
func (r *round[I, K, V, O]) emitter(s *sender[K, V]) func(K, V) {
	if r.cfg.Dist == nil {
		return s.emit
	}
	owns := distOwns(r.cfg.Dist, r.codec)
	return func(k K, v V) {
		if owns(k) {
			s.emit(k, v)
		}
	}
}

// finish closes the partition channels — every sender must be done — and
// waits for the reduce workers.
func (r *round[I, K, V, O]) finish() {
	for _, ch := range r.chans {
		close(ch)
	}
	r.rwg.Wait()
}

// metrics folds the workers' reports into the round's Metrics.
func (r *round[I, K, V, O]) metrics(outputs int64) Metrics {
	m := Metrics{KeyValuePairs: r.shipped.Load(), Outputs: outputs}
	for _, rep := range r.reports {
		m.Add(rep.m)
	}
	return m
}

// failures lists the round's worker errors, reduce side before map side:
// the spill path carries the richer diagnosis when several workers raced
// to set stop.
func (r *round[I, K, V, O]) failures() []error {
	errs := make([]error, 0, len(r.reports)+1)
	for _, rep := range r.reports {
		errs = append(errs, rep.err)
	}
	return append(errs, r.merr)
}

// report is what one reduce worker hands back: its share of the metrics
// (keys, largest group, work, spill I/O) and its failure.
type report struct {
	m   Metrics
	err error
}

// sender is one goroutine's way into a round's shuffle: a batch per
// partition, owned by the goroutine and shipped whole once it holds
// batchSize pairs.
type sender[K comparable, V any] struct {
	chans []chan []pair[K, V]
	flist *batchFreeList[K, V]
	seed  maphash.Seed
	bufs  [][]pair[K, V]
	n     int64 // pairs emitted
}

// emit buffers one pair for its partition, shipping the batch when full.
//
//lint:hotpath
func (s *sender[K, V]) emit(k K, v V) {
	p := int(maphash.Comparable(s.seed, k) % uint64(len(s.bufs)))
	if s.bufs[p] == nil {
		s.bufs[p] = s.flist.get(batchSize)
	}
	s.bufs[p] = append(s.bufs[p], pair[K, V]{k, v})
	s.n++
	if len(s.bufs[p]) >= batchSize {
		s.chans[p] <- s.bufs[p]
		s.bufs[p] = nil
	}
}

// flush ships every partial batch.
func (s *sender[K, V]) flush() {
	for p, buf := range s.bufs {
		if len(buf) > 0 {
			s.chans[p] <- buf
		}
		s.bufs[p] = nil
	}
}

// maxOutBatch is the most outputs one outbox batch carries.
const maxOutBatch = 256

// outbox is the one way a reduce worker's outputs leave it: they collect
// in a batch the worker owns, which leaves whole for its destination, to —
// the run's serialised sink (run.deliver), or in a pipe the next round's
// map (pipe.send). Batches double 1, 2, 4, … maxOutBatch, so the first
// output crosses alone and a busy worker pays one hand-off per
// maxOutBatch outputs instead of one per output.
type outbox[O any] struct {
	buf  []O
	size int // the current batch's size
	to   func([]O)
	list *freeList[O] // where buf comes from and, once the worker is done, goes back
}

// emit adds one output, handing the batch on once it is full.
//
//lint:hotpath
func (b *outbox[O]) emit(o O) {
	if b.buf == nil {
		b.start()
	}
	b.buf = append(b.buf, o)
	if len(b.buf) >= b.size {
		b.flush()
	}
}

// start takes the outbox's one buffer, at the worker's first output, so a
// worker that emits nothing takes none. It is kept out of line so that its
// allocation, when the free list is empty, stays off emit's hot path.
//
//go:noinline
func (b *outbox[O]) start() { b.buf, b.size = b.list.get(maxOutBatch), 1 }

// release hands the last batch on and returns the buffer to its free list.
func (b *outbox[O]) release() {
	b.flush()
	b.list.put(b.buf)
	b.buf = nil
}

// flush hands the pending outputs on. The outbox is emptied first, so a
// destination that panics loses its batch instead of receiving it twice.
func (b *outbox[O]) flush() {
	batch := b.buf
	if len(batch) == 0 {
		return
	}
	b.buf, b.size = batch[:0], min(2*b.size, maxOutBatch)
	b.to(batch)
}

// drain is flush for a failing worker: what it emitted before the failure
// still leaves first. A destination that panics here too loses the batch,
// and its panic comes back as an error for the worker to report beside its
// own failure.
func (b *outbox[O]) drain() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("recovered panic delivering outputs: %v", rec)
		}
	}()
	b.flush()
	return nil
}

// run is the state the workers of one engine run share, whatever the shape
// of its shuffle: the cooperative stop flag and the serialised output sink.
type run[O any] struct {
	// stop is set when ctx is cancelled, yield returns false or a worker
	// fails. Workers poll it instead of selecting on ctx.Done() per item.
	stop atomic.Bool

	ymu     sync.Mutex
	yield   func(O) bool
	yielded int64 // outputs yield accepted
}

// newRun starts a run delivering to yield and stopping when ctx is
// cancelled; a nil ctx means "no cancellation". release ends the ctx watch
// and must be called once the workers are done.
func newRun[O any](ctx context.Context, yield func(O) bool) (r *run[O], release func()) {
	r = &run[O]{yield: yield}
	if ctx == nil {
		return r, func() {}
	}
	r.stop.Store(ctx.Err() != nil) // already cancelled: no worker starts
	unwatch := context.AfterFunc(ctx, func() { r.stop.Store(true) })
	return r, func() { unwatch() }
}

// deliver serializes one outbox batch into yield under one lock. A stop —
// yield's false, a cancellation, a failure elsewhere — drops the outputs
// after it; a reducer mid-group finishes without further delivery, or
// sooner if it polls Context.Stopped.
//
//lint:hotpath
func (r *run[O]) deliver(batch []O) {
	if r.stop.Load() {
		return
	}
	r.ymu.Lock()
	defer r.ymu.Unlock()
	for _, o := range batch {
		if r.stop.Load() {
			return
		}
		if !r.yield(o) {
			r.stop.Store(true)
			return
		}
		r.yielded++
	}
}

// firstError picks a run's error: the first worker failure in the list
// wins; a failure outranks cancellation — a real fault must not be reported
// as a mere ctx.Err(); a stop by yield is a nil error.
func firstError(ctx context.Context, failures ...error) error {
	for _, err := range failures {
		if err != nil {
			return err
		}
	}
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// LoadStats summarizes a map-only load probe: the communication cost the
// job would pay (Pairs), how many reducers would receive data (Keys), and
// the largest single reducer input (MaxLoad) — the observed counterpart of
// Metrics.{KeyValuePairs, DistinctKeys, MaxReducerInput}, available before
// committing to the reduce phase.
type LoadStats struct {
	Pairs   int64
	Keys    int64
	MaxLoad int64
}

// MeanLoad is Pairs / Keys (0 when no key would receive data).
func (ls LoadStats) MeanLoad() float64 {
	if ls.Keys == 0 {
		return 0
	}
	return float64(ls.Pairs) / float64(ls.Keys)
}

// Skew is MaxLoad divided by MeanLoad (0 when no key would receive data).
func (ls LoadStats) Skew() float64 {
	mean := ls.MeanLoad()
	if mean == 0 {
		return 0
	}
	return float64(ls.MaxLoad) / mean
}

// Merge folds another probe into ls as if the two jobs ran side by side
// (loads sum, the max is taken across jobs) — used to aggregate the per-job
// probes of a multi-job strategy.
func (ls LoadStats) Merge(other LoadStats) LoadStats {
	ls.Pairs += other.Pairs
	ls.Keys += other.Keys
	if other.MaxLoad > ls.MaxLoad {
		ls.MaxLoad = other.MaxLoad
	}
	return ls
}
