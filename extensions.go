package subgraphmr

import (
	"context"
	"fmt"
	"strings"

	"subgraphmr/internal/directed"
)

// Directed, edge-labeled graphs — the extension sketched in the paper's
// conclusions ("labeled, directed sample graphs ... the same methods
// work").
type (
	// DiGraph is a directed, edge-labeled data graph.
	DiGraph = directed.DiGraph
	// DiGraphBuilder accumulates arcs for a DiGraph.
	DiGraphBuilder = directed.DiBuilder
	// Arc is a directed labeled data edge.
	Arc = directed.Arc
	// ArcLabel identifies an arc label (one relation per label).
	ArcLabel = directed.Label
	// DiPattern is a directed, labeled sample graph.
	DiPattern = directed.DiPattern
	// PatternArc is a directed labeled edge of a DiPattern.
	PatternArc = directed.PatternArc
)

// Arc labels for the threat-detection patterns of Section 1.1.
const (
	LabelKnows    = directed.LabelKnows
	LabelBuysFrom = directed.LabelBuysFrom
	LabelBookedOn = directed.LabelBookedOn
)

// NewDiGraphBuilder returns a builder for a directed labeled graph with n
// nodes.
func NewDiGraphBuilder(n int) *DiGraphBuilder { return directed.NewDiBuilder(n) }

// NewDiPattern builds a directed labeled sample pattern.
func NewDiPattern(p int, arcs []PatternArc, names ...string) (*DiPattern, error) {
	return directed.NewPattern(p, arcs, names...)
}

// ThreatRingPattern returns the Section 1.1-style query: k people booked
// on the same flight who form a buys-from ring.
func ThreatRingPattern(k int) *DiPattern { return directed.ThreatRing(k) }

// EnumerateDirectedContext finds every instance of a directed labeled
// pattern (at most 16 nodes) in a single map-reduce round of the Section
// 4.5 bucket scheme, each exactly once. A nil sink materializes
// Result.Instances; a non-nil sink receives each instance instead
// (serialized, with backpressure; returning false stops the job early).
// Result.Count is exact either way, and Result.Jobs holds the one job.
// Cancelling ctx aborts the job and returns ctx.Err().
//
// It takes Plan's options and honours the bucket, seed and engine ones
// (WithBuckets, WithTargetReducers, WithSeed, WithParallelism,
// WithPartitions). WithMemoryBudget and WithSpillDir are accepted and
// bound nothing: the one job holds each arc once and never spills. Any
// other option is an error naming it: the directed path has one strategy,
// no CQs to generate, no adaptive re-planning and no distributed runner. A
// nil graph or pattern is an error naming it.
func EnumerateDirectedContext(ctx context.Context, g *DiGraph, pt *DiPattern, sink func([]Node) bool, opts ...Option) (*Result, error) {
	o := defaultPlanOpts()
	for _, fn := range opts {
		fn(&o)
	}
	var unsupported []string
	reject := func(set bool, name string) {
		if set {
			unsupported = append(unsupported, name)
		}
	}
	reject(o.strategy != StrategyAuto, "WithStrategy")
	reject(o.core.UseCycleCQs, "WithCycleCQs")
	reject(o.countOnly, "WithCountOnly")
	reject(o.core.AdaptiveReplan, "WithAdaptive")
	reject(o.isDistributed() || o.workerTimeout != 0 || o.fault != (FaultSpec{}),
		"WithWorkers/WithDistributed/WithWorkerTimeout/WithFaultInjection")
	if len(unsupported) > 0 {
		return nil, fmt.Errorf("subgraphmr: the directed path cannot honour %s", strings.Join(unsupported, ", "))
	}
	return directed.EnumerateContext(ctx, g, pt, o.core, sink)
}

// DirectedBruteForce is the exhaustive oracle for directed patterns.
func DirectedBruteForce(g *DiGraph, pt *DiPattern) [][]Node {
	return directed.BruteForce(g, pt)
}
