package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"subgraphmr/internal/failpoint"
)

// RoundStats records one executed round of a pipe.
type RoundStats struct {
	// Name is the round's Job.Name ("round 1" or "round 2" when unnamed).
	Name string
	// Metrics is the measured cost of the round.
	Metrics Metrics
}

// RunPipe executes j1 and j2 as two rounds with no materialised hand-off:
// each of j1's reduce workers runs j2's Map on its own outputs, batch by
// batch (see outbox), straight into j2's partitions. side, when set, maps
// j1's inputs into j2's shuffle as well — the base relation j2 joins j1's
// outputs with — on map workers of j2's own, once j1's map phase is over.
// j2's reduce workers start with j1's, so the intermediate relation exists
// only as j2's shuffle state, never as a slice. j2's outputs go to yield under Job.RunStream's contract; a stop or
// cancellation, wherever it is noticed, ends both rounds. It returns each
// round's (possibly partial) metrics, exactly as two separate runs would
// report them: j1's Outputs counts the values handed to j2's Map, and j2's
// KeyValuePairs counts what that Map and side emitted.
//
// Config.Dist filters j1 only: j2's inputs are what the owned part of j1
// produced plus side's pairs, which every worker maps in full.
//
// Under Config.MemoryBudget the two rounds' shuffle state together stays
// within the budget. j2's buffers fill only once j1's reduce workers have
// all settled at a barrier, so what overlaps them is j1's reduce phase: a
// buffer that never spilled, or the reserve a worker that spilled keeps for
// its merge read buffers. j2's worker p buffers in its share less what
// j1's worker p keeps, read at its first batch, which comes after the
// barrier; j1's buffers, which never meet j2's, use the whole share.
//
// A failure in j2's Map on a j1 reduce worker — a panic, an injected fault
// at the mr.map failpoint, evaluated there before its first batch — is
// j2's, at StageMap.
func RunPipe[I any, K1 comparable, V1 any, M any, K2 comparable, V2 any, O any](ctx context.Context, cfg Config, j1 Job[I, K1, V1, M], inputs []I, j2 Job[M, K2, V2, O], side Mapper[I, K2, V2], yield func(O) bool) ([2]RoundStats, error) {
	stats := [2]RoundStats{{Name: roundName(j1.Name, 1)}, {Name: roundName(j2.Name, 2)}}
	run, release := newRun(ctx, yield)
	defer release()
	cfg2 := cfg
	cfg2.Dist = nil
	r1, err := newRound(j1, cfg, &run.stop, cfg.mappers(len(inputs)))
	if err != nil {
		return stats, err
	}
	np1 := len(r1.chans)
	r2, err := newRound(j2, cfg2, &run.stop, np1+cfg2.mappers(len(inputs)))
	if err != nil {
		return stats, err
	}
	if r1.share > 0 {
		r1.keep = min(r1.share/16, maxRunBuf)
		r1.held = make([]int64, np1)
		r2.less = r1.held
	}
	var sealed sync.WaitGroup
	sealed.Add(np1)
	r1.sealed = &sealed

	deliver := run.deliver
	r2.startReducers(func(int) func([]O) { return deliver })
	pipes := make([]*pipe[M, K2, V2], np1)
	r1.startReducers(func(p int) func([]M) {
		s := r2.newSender()
		pipes[p] = &pipe[M, K2, V2]{sender: s, emit: r2.emitter(s), mapf: j2.Map, stop: &run.stop, fail: r2.failMap}
		return pipes[p].send
	})
	mapInputs(r1, inputs, j1.Map)
	for _, ch := range r1.chans {
		close(ch)
	}
	sealed.Wait()
	if side != nil {
		mapInputs(r2, inputs, side)
	}
	r1.rwg.Wait()
	var mapped int64
	for _, pp := range pipes {
		if !run.stop.Load() {
			pp.flush()
		}
		mapped += pp.mapped
		r2.shipped.Add(pp.n)
	}
	r2.finish()
	stats[0].Metrics, stats[1].Metrics = r1.metrics(mapped), r2.metrics(run.yielded)
	return stats, firstError(ctx, append(r1.failures(), r2.failures()...)...)
}

// roundName is a round's Job.Name, or "round i" when unnamed.
func roundName(name string, i int) string {
	if name == "" {
		return fmt.Sprintf("round %d", i)
	}
	return name
}

// pipe is the next round's Map run on a reduce worker of a pipe's first
// round: the worker's outbox flushes into send, which maps each output
// into the next round's partitions through batches of the worker's own.
type pipe[M any, K comparable, V any] struct {
	*sender[K, V]
	mapf    Mapper[M, K, V]
	emit    func(K, V)
	stop    *atomic.Bool
	fail    func(error) // the next round's map-side failure
	started bool
	mapped  int64 // outputs handed to mapf
}

// send maps one outbox batch. A panic in the Map is the next round's
// failure, recovered here so the worker it runs on does not report it as
// its own.
func (p *pipe[M, K, V]) send(batch []M) {
	defer func() {
		if rec := recover(); rec != nil {
			p.fail(fmt.Errorf("recovered panic: %v", rec))
		}
	}()
	if p.stop.Load() {
		return
	}
	if !p.started {
		p.started = true
		if err := failpoint.Eval(failpoint.MapWorker); err != nil {
			p.fail(err)
			return
		}
	}
	p.mapped += int64(len(batch))
	p.mapBatch(batch)
}

// mapBatch runs the next round's Map over one batch.
//
//lint:hotpath
func (p *pipe[M, K, V]) mapBatch(batch []M) {
	for i := range batch {
		p.mapf(batch[i], p.emit)
	}
}
