package mapreduce

import (
	"context"
	"fmt"
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
	name := j.Name
	if name == "" {
		name = fmt.Sprintf("round %d", len(c.Rounds)+1)
	}
	m, err := j.RunStream(ctx, c.Cfg, inputs, yield)
	c.Rounds = append(c.Rounds, RoundStats{Name: name, Metrics: m})
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
