package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"subgraphmr/internal/failpoint"
)

// BlockJob is one map-reduce round whose replication is by reference. In a
// share-hashed job (Sections 2 and 4 of the paper) the reducers a value
// goes to are a function of a few hash buckets alone, so every value with
// the same buckets goes to the same reducers: Map names that class — the
// value's block, in [0, Blocks) — instead of emitting one pair per reducer,
// and Keys lists every reducer key with the blocks it reads. The engine
// stores each value once, in its block, and a reduce task gathers the blocks
// its key covers into the []V the Reducer has always received. What a
// cluster would ship is unchanged — a key's input is the sum of its blocks —
// and that is what Metrics reports; what one machine no longer does is make
// the copies.
//
// Map must be deterministic (the engine runs it twice, to size the blocks
// and then to fill them). The blocks slice Keys hands to yield is only valid
// during the call, lists no block twice, and two keys may share blocks. Keys
// whose blocks are all empty never become reducers, exactly as a key no
// pair was emitted for. A block job never spills (see RunStream), so Codec
// encodes keys only, for Config.Dist ownership (nil means DefaultCodec's).
//
// Prepare, when set, is work a reducer would otherwise repeat for every task
// that reads a block — in the share-hashed jobs, ranking the block's nodes —
// done once per block instead. The engine calls it at most once per
// non-empty block, lazily, on the reduce worker whose task is the first to
// read the block and with that worker's Context, before any task that reads
// the block runs; different blocks are prepared concurrently. What Prepare
// stores for a block is therefore visible to every later reducer call, which
// finds its task's blocks in Context.Blocks. It never runs for Loads or for
// an empty block, and a panic in it fails the job like a panic in Reduce.
type BlockJob[I any, K comparable, V any, O any] struct {
	Name    string
	Blocks  int
	Map     func(in I, emit func(block int, v V))
	Keys    func(yield func(key K, blocks []int32))
	Prepare func(ctx *Context, block int, vals []V)
	Reduce  Reducer[K, V, O]
	Codec   KeyCodec[K]
}

// blockTask is one reducer of a block job: its key and the non-empty blocks
// it reads, ids[lo:hi] of the plan.
type blockTask[K comparable] struct {
	key    K
	lo, hi int32
}

// blockPlan is a block job after its map phase: the block table, and one
// task per reducer that receives data and — under Config.Dist — is owned.
// The task list is the job's communication: loads sums it.
type blockPlan[K comparable, V any] struct {
	off   []int // block b holds vals[off[b]:off[b+1]]
	vals  []V   // nil in a load probe
	tasks []blockTask[K]
	ids   []int32
	loads LoadStats
	once  []sync.Once // block → its Prepare; nil when the job has none
}

// forEachInput applies Map to every input until stop is set.
//
//lint:hotpath
func (j BlockJob[I, K, V, O]) forEachInput(inputs []I, stop *atomic.Bool, emit func(block int, v V)) {
	for i := range inputs {
		if stop.Load() {
			return
		}
		j.Map(inputs[i], emit)
	}
}

// plan runs the map phase: a counting scatter of every value into its block
// (one flat slice; skipped when probe is set, which wants the sizes only),
// then a walk over Keys that sizes each key as the sum of its blocks and
// keeps the ones that are non-empty and owned. A panic in Map or Keys, and
// — in a run — an injected fault at the mr.map failpoint, come back as a
// typed error.
func (j BlockJob[I, K, V, O]) plan(cfg Config, inputs []I, stop *atomic.Bool, probe bool) (p blockPlan[K, V], err error) {
	var owns func(K) bool
	if cfg.Dist != nil {
		codec, err := keyCodec(j.Name, j.Codec, cfg.Dist)
		if err != nil {
			return p, err
		}
		owns = distOwns(cfg.Dist, codec)
	}
	defer func() {
		if r := recover(); r != nil {
			err = engineErr(StageMap, j.Name, fmt.Errorf("recovered panic: %v", r))
		}
	}()
	if !probe {
		if err := failpoint.Eval(failpoint.MapWorker); err != nil {
			return p, engineErr(StageMap, j.Name, err)
		}
	}

	// The emit closures are built once per pass, not per input.
	p.off = make([]int, j.Blocks+1)
	j.forEachInput(inputs, stop, func(block int, _ V) { p.off[block+1]++ })
	for b := 0; b < j.Blocks; b++ {
		p.off[b+1] += p.off[b]
	}
	if !probe {
		p.vals = make([]V, p.off[j.Blocks])
		next := make([]int, j.Blocks) // block → where its next value goes
		copy(next, p.off)
		j.forEachInput(inputs, stop, func(block int, v V) {
			p.vals[next[block]] = v
			next[block]++
		})
	}

	j.Keys(func(key K, blocks []int32) {
		size := 0
		for _, b := range blocks {
			size += p.off[b+1] - p.off[b]
		}
		if size == 0 || owns != nil && !owns(key) {
			return
		}
		lo := int32(len(p.ids))
		for _, b := range blocks {
			if p.off[b] < p.off[b+1] {
				p.ids = append(p.ids, b)
			}
		}
		p.tasks = append(p.tasks, blockTask[K]{key: key, lo: lo, hi: int32(len(p.ids))})
		p.loads.Pairs += int64(size)
		p.loads.MaxLoad = max(p.loads.MaxLoad, int64(size))
	})
	p.loads.Keys = int64(len(p.tasks))
	return p, nil
}

// gather appends the values of t's blocks to dst.
//
//lint:hotpath
func (p *blockPlan[K, V]) gather(dst []V, t blockTask[K]) []V {
	for _, b := range p.ids[t.lo:t.hi] {
		dst = append(dst, p.vals[p.off[b]:p.off[b+1]]...)
	}
	return dst
}

// ready prepares each block of the task in progress (ctx.Blocks) that no
// worker has prepared yet and reports whether the task may run: false once
// the job has stopped — a Prepare that panicked, here or on another worker,
// stops it before any worker waiting on that block is released.
//
//lint:hotpath
func (p *blockPlan[K, V]) ready(ctx *Context, prepare func(*Context, int, []V)) bool {
	if prepare == nil {
		return true
	}
	for _, b := range ctx.Blocks {
		p.once[b].Do(func() { p.prepare(ctx, b, prepare) })
	}
	return !ctx.Stopped()
}

// prepare runs Prepare on block b. A panic sets the job's stop flag before
// it leaves — and so before the block's Once releases anyone waiting on it —
// and goes on to the worker's recovery, which makes it a typed error.
func (p *blockPlan[K, V]) prepare(ctx *Context, b int32, prepare func(*Context, int, []V)) {
	defer func() {
		if r := recover(); r != nil {
			ctx.stop.Store(true)
			panic(r)
		}
	}()
	prepare(ctx, int(b), p.vals[p.off[b]:p.off[b+1]])
}

// Loads runs only the map phase — one counting pass over the inputs and the
// walk over the keys, nothing scattered or reduced — and returns the loads
// RunStream would ship under cfg: the same task list, so a probe and a run
// cannot disagree.
func (j BlockJob[I, K, V, O]) Loads(cfg Config, inputs []I) (LoadStats, error) {
	var never atomic.Bool
	p, err := j.plan(cfg, inputs, &never, true)
	return p.loads, err
}

// RunStream executes the job under Job.RunStream's contract — serialized
// consumer-paced yield, early stop with a nil error, ctx.Err() on
// cancellation, a typed *EngineError when a worker fails — with two
// differences that follow from the task list existing before any reducer
// runs: KeyValuePairs, DistinctKeys and MaxReducerInput describe the whole
// job even when it is stopped early, and the first output can follow one
// pass over the inputs.
//
// Config.MemoryBudget and SpillDir are not read: the block table is
// input-sized — one V per emitted value — and stays in memory with the
// largest group, so a block job reports no Spill* and creates no file.
func (j BlockJob[I, K, V, O]) RunStream(ctx context.Context, cfg Config, inputs []I, yield func(O) bool) (Metrics, error) {
	run, release := newRun(ctx, yield)
	defer release()
	p, err := j.plan(cfg, inputs, &run.stop, false)
	metrics := Metrics{KeyValuePairs: p.loads.Pairs, DistinctKeys: p.loads.Keys, MaxReducerInput: p.loads.MaxLoad}
	if err != nil || run.stop.Load() {
		return metrics, firstError(ctx, err)
	}
	if j.Prepare != nil {
		p.once = make([]sync.Once, j.Blocks)
	}
	np := max(cfg.partitions(), 1)
	deliver, outs := run.deliver, listFor[O]()
	var (
		wg   sync.WaitGroup
		next atomic.Int64 // the next task nobody has taken
		work atomic.Int64
		errs = make([]error, np)
	)
	for w := 0; w < np; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outbox[O]{to: deliver, list: outs}
			fail := func(cause error) {
				if err := out.drain(); err != nil {
					cause = errors.Join(cause, err)
				}
				errs[w] = engineErr(StageReduce, j.Name, cause)
				run.stop.Store(true)
			}
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("recovered panic: %v", r))
				}
			}()
			if err := failpoint.Eval(failpoint.ReduceWorker); err != nil {
				fail(err)
				return
			}
			rctx := &Context{stop: &run.stop}
			emit := out.emit
			group := make([]V, 0, p.loads.MaxLoad) // holds the largest task
			for !run.stop.Load() {
				i := next.Add(1) - 1
				if i >= int64(len(p.tasks)) {
					break
				}
				t := p.tasks[i]
				rctx.Blocks = p.ids[t.lo:t.hi]
				if !p.ready(rctx, j.Prepare) {
					break
				}
				group = p.gather(group[:0], t)
				j.Reduce(rctx, t.key, group, emit)
				// A reduce task never blocks — no channel, no lock until an
				// output — so np workers would hold every P for a full
				// preemption slice (10 ms) each, and a concurrent job that
				// does block (timers, channels, netpoll: the cascade behind
				// a served request) would run only in the gaps: measured
				// +26…69 % on the service's time to first result. Yielding
				// between tasks costs ~100 ns when nothing else is runnable
				// and a task is ≥ 100 µs. The plain Job's per-group loop
				// must not do this: its groups can be a few values each.
				runtime.Gosched()
			}
			out.release()
			work.Add(rctx.work)
		}(w)
	}
	wg.Wait()
	metrics.ReducerWork, metrics.Outputs = work.Load(), run.yielded
	return metrics, firstError(ctx, errs...)
}
