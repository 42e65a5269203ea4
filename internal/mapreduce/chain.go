package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"subgraphmr/internal/failpoint"
)

// RoundStats records one executed round of a Chain.
type RoundStats struct {
	// Name is the round's Job.Name ("round N" when unnamed).
	Name string
	// Metrics is the measured cost of the round.
	Metrics Metrics
}

// Chain executes a multi-round map-reduce job — each round's outputs feed
// the next round's inputs — and accumulates per-round statistics, so
// decomposition strategies that need more than one round (the cascades of
// Section 1, the Lemma 6.1 part joins) are explicit jobs rather than
// ad-hoc serial glue:
//
//	c := mapreduce.NewChain(cfg)
//	err := mapreduce.RunRoundStream(ctx, c, round1Job, inputs, collectMid)
//	err = mapreduce.RunRoundStream(ctx, c, round2Job, mid, sink)
//	total := c.Total()
//
// RunRoundStream is a free function rather than a method because Go
// methods cannot introduce the per-round type parameters.
//
// Rounds whose jobs share a (key, value) pair type also share the engine's
// process-wide shuffle-batch free list (see recycle.go), so a multi-round
// chain reuses round N's batch buffers in round N+1 instead of
// re-allocating the shuffle from scratch.
type Chain struct {
	// Cfg is the engine configuration every round runs under.
	Cfg Config
	// Rounds lists the executed rounds in order.
	Rounds []RoundStats
}

// NewChain returns a Chain whose rounds run under cfg.
func NewChain(cfg Config) *Chain { return &Chain{Cfg: cfg} }

// RunRoundStream executes j as the chain's next round, streaming its
// outputs into yield (serialized, with backpressure); a round whose outputs
// feed the next collects them there. See Job.RunStream for the yield and
// cancellation contract. The round's (possibly partial) metrics are
// recorded on the chain either way.
func RunRoundStream[I any, K comparable, V any, O any](ctx context.Context, c *Chain, j Job[I, K, V, O], inputs []I, yield func(O) bool) error {
	m, err := j.RunStream(ctx, c.Cfg, inputs, yield)
	c.Rounds = append(c.Rounds, RoundStats{Name: c.roundName(j.Name, 0), Metrics: m})
	return err
}

// NumRounds returns the number of rounds executed so far.
func (c *Chain) NumRounds() int { return len(c.Rounds) }

// Total sums the metrics over all executed rounds (MaxReducerInput is the
// maximum across rounds, per Metrics.Add).
func (c *Chain) Total() Metrics {
	var t Metrics
	for _, r := range c.Rounds {
		t.Add(r.Metrics)
	}
	return t
}

// RunPipe executes j1 and j2 as the chain's next two rounds with no
// materialised hand-off: each of j1's reduce workers runs j2's Map on its
// own outputs, batch by batch (see outbox), straight into j2's partitions.
// side, when set, maps j1's inputs into j2's shuffle as well — the base
// relation j2 joins j1's outputs with — on map workers of j2's own, once
// j1's map phase is over. j2's reduce workers start with j1's, so the
// intermediate relation exists only as j2's shuffle state, never as a
// slice. j2's outputs go to yield under Job.RunStream's
// contract; a stop or cancellation, wherever it is noticed, ends both
// rounds. Both rounds' metrics are recorded on the chain, exactly as two
// RunRoundStream calls would record them: j1's Outputs counts the values
// handed to j2's Map, and j2's KeyValuePairs counts what that Map and side
// emitted.
//
// Config.Dist filters j1 only: j2's inputs are what the owned part of j1
// produced plus side's pairs, which every worker maps in full.
//
// Under Config.MemoryBudget the two rounds' shuffle state together stays
// within the budget. j2's buffers fill only once j1's reduce workers have
// settled (the last run spilled, the buffer dropped), so what overlaps
// them is j1's reduce phase: its merge read buffers, or a buffer that never
// spilled and fits them. Those take a small reserve out of each worker's
// share, j2 buffers in the rest, and j1's buffers, which never meet j2's,
// use the whole share.
//
// A failure in j2's Map on a j1 reduce worker — a panic, an injected fault
// at the mr.map failpoint, evaluated there before its first batch — is
// j2's, at StageMap.
func RunPipe[I any, K1 comparable, V1 any, M any, K2 comparable, V2 any, O any](ctx context.Context, c *Chain, j1 Job[I, K1, V1, M], inputs []I, j2 Job[M, K2, V2, O], side Mapper[I, K2, V2], yield func(O) bool) error {
	m1, m2, err := runPipe(ctx, c.Cfg, j1, inputs, j2, side, yield)
	c.Rounds = append(c.Rounds,
		RoundStats{Name: c.roundName(j1.Name, 0), Metrics: m1},
		RoundStats{Name: c.roundName(j2.Name, 1), Metrics: m2})
	return err
}

// runPipe is RunPipe under cfg, returning each round's metrics.
func runPipe[I any, K1 comparable, V1 any, M any, K2 comparable, V2 any, O any](ctx context.Context, cfg Config, j1 Job[I, K1, V1, M], inputs []I, j2 Job[M, K2, V2, O], side Mapper[I, K2, V2], yield func(O) bool) (m1, m2 Metrics, err error) {
	run, release := newRun(ctx, yield)
	defer release()
	cfg2 := cfg
	cfg2.Dist = nil
	r1, err := newRound(j1, cfg, &run.stop, cfg.mappers(len(inputs)))
	if err != nil {
		return m1, m2, err
	}
	np1 := len(r1.chans)
	r2, err := newRound(j2, cfg2, &run.stop, np1+cfg2.mappers(len(inputs)))
	if err != nil {
		return m1, m2, err
	}
	if r1.share > 0 {
		r1.keep = min(r1.share/16, maxRunBuf)
		r2.share = max(r2.share-r1.keep, 1)
		r2.keep = r2.share
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
	return r1.metrics(mapped), r2.metrics(run.yielded), firstError(ctx, append(r1.failures(), r2.failures()...)...)
}

// roundName is a round's Job.Name, or "round N" for the chain's i-th next
// round when unnamed.
func (c *Chain) roundName(name string, i int) string {
	if name == "" {
		return fmt.Sprintf("round %d", len(c.Rounds)+i+1)
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
