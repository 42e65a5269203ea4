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
	// SpillBytes is the total bytes written to spill run files, including
	// intermediate merge passes.
	SpillBytes int64
	// SpillFiles is the number of spill run files created, including
	// intermediate merge outputs. All are removed before Run returns.
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
	// job's Contexts and so dies with the job — unlike a sync.Pool or a
	// package variable it cannot ratchet a long-lived process's memory up
	// across queries.
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
	// share it is sorted by encoded key and written as a run to a temp
	// file, and the round finishes with a k-way merge that streams each
	// key's values into the reducer (a worker that never crosses reduces
	// from its sorted buffer, no file written). Inside the share: the
	// buffered pairs, the sort scratch (16 bytes a pair, plus the encodings
	// of fixed-width keys longer than 8 bytes), the run write buffer (a
	// sixteenth of the share) and, once merging, the run read buffers (the
	// share split between the open runs) — each I/O buffer between 4 and
	// 64 KiB, so a share below 4 KiB a run is exceeded by that floor.
	// Outside it: heap data a key or value references (only a job with its
	// own Codec can have such types), the largest single key group (a
	// reducer receives it as one []V) and whatever the consumer keeps of
	// the output. Outputs and the core metrics are identical to the
	// in-memory path; the Spill* metrics record the extra I/O. A budget
	// needs a codec — Job.Codec, or DefaultCodec for integer and
	// fixed-size types — or the run fails before any worker starts; spill
	// I/O failures surface as a typed *EngineError from RunStream. A
	// BlockJob holds no pairs — each value sits once in its input-sized
	// block table — so it ignores the budget and never spills.
	MemoryBudget int64
	// SpillDir is the directory for spill run files; "" means the system
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

func (c Config) partitions() int {
	if c.Partitions > 0 {
		return c.Partitions
	}
	return c.workers()
}

// Job is one map-reduce round. Map and Reduce are required. Codec is the
// key order and spill serialization under Config.MemoryBudget and the key
// encoding of Config.Dist ownership; nil means DefaultCodec. Name labels the
// round in Chain statistics and errors.
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

// RunStream executes the job, delivering reducer outputs one at a time to
// yield instead of materializing them. Calls to yield are serialized
// (never concurrent) and block the emitting reduce worker, so delivery is
// consumer-paced and the outputs never accumulate in memory. Note the
// pacing reaches the reduce phase only: reduction starts after the map
// phase completes, so by the first yield the shuffled pairs are already
// grouped in the reduce workers' tables — bound that state with
// Config.MemoryBudget, not with a slow consumer. Returning false from
// yield stops the job early: no further outputs are delivered, remaining
// groups are never reduced, a reducer in the middle of its group can see it
// through Context.Stopped, spill files are removed, and RunStream returns
// the partial metrics with a nil error. Cancelling ctx has the same
// teardown — and can additionally interrupt the map phase — but returns
// ctx.Err(). Metrics.Outputs counts only the values yield accepted.
func (j Job[I, K, V, O]) RunStream(ctx context.Context, cfg Config, inputs []I, yield func(O) bool) (Metrics, error) {
	nm := cfg.workers()
	if nm > len(inputs) && len(inputs) > 0 {
		nm = len(inputs)
	}
	if nm < 1 {
		nm = 1
	}
	np := cfg.partitions()
	if np < 1 {
		np = 1
	}

	// The codec is resolved once; under Dist each map worker instantiates
	// its own ownership predicate (distOwns keeps a scratch buffer that must
	// not be shared across goroutines).
	codec, err := jobCodec(j.Name, j.Codec, cfg)
	if err != nil {
		return Metrics{}, err
	}
	seed := maphash.MakeSeed()

	run, release := newRun(ctx, yield)
	defer release()
	stop, deliver := &run.stop, run.deliver

	// External shuffle: with a memory budget, every reduce worker gets an
	// equal share and buffers its pairs in a spiller, which sorts them out
	// to a run file whenever their footprint crosses it.
	var share int64
	if cfg.MemoryBudget > 0 {
		share = max(cfg.MemoryBudget/int64(np), 1)
	}

	chans := make([]chan []pair[K, V], np)
	for p := range chans {
		chans[p] = make(chan []pair[K, V], 2*nm)
	}
	// Shuffle batches cycle through a process-wide per-type free list:
	// mappers take recycled buffers, reduce workers return each batch once
	// its pairs are copied into the group table (see recycle.go).
	flist := freeListFor[K, V]()

	// Reduce workers: each owns one partition, taking in batches as they
	// arrive (concurrently with mapping) and reducing once its channel
	// closes — from the bucketed group table, or with a budget from the
	// spiller's sorted buffer or run merge. On stop they keep draining their
	// channel (so mappers never block forever) but skip grouping and
	// reducing.
	var (
		rwg      sync.WaitGroup
		distinct = make([]int64, np)
		maxIn    = make([]int64, np)
		works    = make([]int64, np)
		spills   = make([]Metrics, np)
		errs     = make([]error, np)
	)
	for p := 0; p < np; p++ {
		rwg.Add(1)
		go func(p int) {
			defer rwg.Done()
			// fail records a typed worker error and keeps draining the
			// partition channel so mappers never block on a dead partition
			// (recycling the drained batches as usual).
			fail := func(stage string, cause error) {
				errs[p] = engineErr(stage, j.Name, cause)
				stop.Store(true)
				for batch := range chans[p] {
					flist.put(batch)
				}
			}
			// A panicking reducer (or spill codec) is recovered once per
			// worker and converted to the same typed error. The spiller's
			// cleanup defer below is registered later, so it has already
			// removed the run files by the time this recovery runs.
			defer func() {
				if r := recover(); r != nil {
					fail(StageReduce, fmt.Errorf("recovered panic: %v", r))
				}
			}()
			if err := failpoint.Eval(failpoint.ReduceWorker); err != nil {
				fail(StageReduce, err)
				return
			}
			var (
				sp    *spiller[K, V]    // budgeted path
				table *groupTable[K, V] // in-memory path
			)
			if share > 0 {
				sp = newSpiller(codec, cfg.SpillDir, share)
				defer sp.cleanup()
			} else {
				table = newGroupTable[K, V](seed)
			}
			for batch := range chans[p] {
				if stop.Load() {
					flist.put(batch)
					continue // drain without grouping
				}
				if sp != nil {
					if err := sp.add(batch); err != nil {
						fail(StageSpill, err)
						return
					}
				} else {
					for _, kv := range batch {
						table.add(kv.key, kv.val)
					}
				}
				flist.put(batch)
			}
			if stop.Load() {
				// Cancelled or stopped early: nothing left to reduce; the
				// deferred cleanup removes any spill runs.
				return
			}
			rctx := &Context{stop: stop}
			reduce := func(k K, vs []V) bool {
				if stop.Load() {
					return false
				}
				j.Reduce(rctx, k, vs, deliver)
				return true
			}
			if sp != nil {
				d, mi, err := sp.reduce(reduce)
				if err != nil {
					fail(StageSpill, err)
					return
				}
				distinct[p], maxIn[p] = d, mi
				spills[p] = Metrics{SpilledPairs: sp.pairs, SpillBytes: sp.bytes, SpillFiles: sp.runs}
			} else {
				if !table.group(stop) {
					return
				}
				distinct[p] = int64(table.numKeys())
				maxIn[p] = table.forEach(reduce)
			}
			works[p] = rctx.work
		}(p)
	}

	// Map workers: each owns a contiguous shard of the inputs and streams
	// batches into the partition channels.
	shipped := make([]int64, nm)
	merrs := make([]error, nm)
	var mwg sync.WaitGroup
	chunk := (len(inputs) + nm - 1) / nm
	if chunk < 1 {
		chunk = 1
	}
	for w := 0; w < nm; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(inputs) {
			hi = len(inputs)
		}
		if lo >= hi {
			continue
		}
		mwg.Add(1)
		go func(w, lo, hi int) {
			defer mwg.Done()
			// A panicking mapper is recovered once per worker; buffered
			// batches are dropped (nobody will reduce them) and the reduce
			// workers see stop and drain.
			defer func() {
				if r := recover(); r != nil {
					merrs[w] = engineErr(StageMap, j.Name, fmt.Errorf("recovered panic: %v", r))
					stop.Store(true)
				}
			}()
			if err := failpoint.Eval(failpoint.MapWorker); err != nil {
				merrs[w] = engineErr(StageMap, j.Name, err)
				stop.Store(true)
				return
			}
			bufs := make([][]pair[K, V], np)
			emit := func(k K, v V) {
				p := int(maphash.Comparable(seed, k) % uint64(np))
				if bufs[p] == nil {
					bufs[p] = flist.get(batchSize)
				}
				bufs[p] = append(bufs[p], pair[K, V]{k, v})
				shipped[w]++
				if len(bufs[p]) >= batchSize {
					chans[p] <- bufs[p]
					bufs[p] = nil
				}
			}

			// The ownership filter wraps the emit ahead of the shipped
			// count, so an unowned pair leaves no trace in the metrics and
			// N disjoint filtered runs sum to exactly one unfiltered run's
			// metrics.
			if cfg.Dist != nil {
				owns := distOwns(cfg.Dist, codec)
				ship := emit
				emit = func(k K, v V) {
					if owns(k) {
						ship(k, v)
					}
				}
			}

			for i := lo; i < hi; i++ {
				if stop.Load() {
					return // discard buffered pairs: nobody will reduce them
				}
				j.Map(inputs[i], emit)
			}
			if stop.Load() {
				return
			}
			for p, buf := range bufs {
				if len(buf) > 0 {
					chans[p] <- buf
				}
			}
		}(w, lo, hi)
	}
	mwg.Wait()
	for p := range chans {
		close(chans[p])
	}
	rwg.Wait()

	var metrics Metrics
	for w := 0; w < nm; w++ {
		metrics.KeyValuePairs += shipped[w]
	}
	for p := 0; p < np; p++ {
		metrics.DistinctKeys += distinct[p]
		if maxIn[p] > metrics.MaxReducerInput {
			metrics.MaxReducerInput = maxIn[p]
		}
		metrics.ReducerWork += works[p]
		metrics.SpilledPairs += spills[p].SpilledPairs
		metrics.SpillBytes += spills[p].SpillBytes
		metrics.SpillFiles += spills[p].SpillFiles
	}
	metrics.Outputs = run.yielded
	// Reduce side before map side: the spill path carries the richer
	// diagnosis when several workers raced to set stop.
	return metrics, firstError(ctx, append(errs, merrs...)...)
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

// deliver serializes reducer outputs into yield. After a stop it drops
// outputs; a reducer mid-group finishes without further delivery, or sooner
// if it polls Context.Stopped.
func (r *run[O]) deliver(o O) {
	if r.stop.Load() {
		return
	}
	r.ymu.Lock()
	defer r.ymu.Unlock()
	if r.stop.Load() {
		return
	}
	if r.yield(o) {
		r.yielded++
	} else {
		r.stop.Store(true)
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
