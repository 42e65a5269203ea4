package subgraphmr

import (
	"context"

	"subgraphmr/internal/approx"
	"subgraphmr/internal/cycles"
	"subgraphmr/internal/directed"
	"subgraphmr/internal/multijoin"
	"subgraphmr/internal/tworound"
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
	// DirectedOptions configures EnumerateDirected.
	DirectedOptions = directed.Options
	// DirectedResult is the outcome of EnumerateDirected.
	DirectedResult = directed.Result
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

// RandomDiGraph returns a random directed graph with n nodes, m arcs and
// the given number of labels.
func RandomDiGraph(n, m, labels int, seed int64) *DiGraph {
	return directed.RandomDiGraph(n, m, labels, seed)
}

// NewDiPattern builds a directed labeled sample pattern.
func NewDiPattern(p int, arcs []PatternArc, names ...string) (*DiPattern, error) {
	return directed.NewPattern(p, arcs, names...)
}

// DirectedCyclePattern returns the directed p-cycle pattern with one label.
func DirectedCyclePattern(p int, label ArcLabel) *DiPattern {
	return directed.DirectedCycle(p, label)
}

// DirectedPathPattern returns the directed p-node path pattern.
func DirectedPathPattern(p int, label ArcLabel) *DiPattern {
	return directed.DirectedPath(p, label)
}

// FanInPattern returns p-1 sources pointing at one sink.
func FanInPattern(p int, label ArcLabel) *DiPattern { return directed.FanIn(p, label) }

// ThreatRingPattern returns the Section 1.1-style query: k people booked
// on the same flight who form a buys-from ring.
func ThreatRingPattern(k int) *DiPattern { return directed.ThreatRing(k) }

// EnumerateDirectedContext finds every instance of a directed labeled
// pattern (at most 16 nodes) in a single map-reduce round, each exactly
// once. A nil sink materializes Result.Instances; a non-nil sink receives
// each instance instead (serialized, with backpressure; returning false
// stops the job early). Cancelling ctx aborts the job, removes spill runs
// and returns ctx.Err(). The directed Options honor the same execution
// knobs as the undirected planner (TargetReducers, Parallelism, Partitions,
// MemoryBudget, SpillDir, Seed).
func EnumerateDirectedContext(ctx context.Context, g *DiGraph, pt *DiPattern, opt DirectedOptions, sink func([]Node) bool) (*DirectedResult, error) {
	return directed.EnumerateContext(ctx, g, pt, opt, sink)
}

// DirectedBruteForce is the exhaustive oracle for directed patterns.
func DirectedBruteForce(g *DiGraph, pt *DiPattern) [][]Node {
	return directed.BruteForce(g, pt)
}

// WedgeCount returns the size of the intermediate relation the cascade
// must ship.
func WedgeCount(g *Graph) int64 { return tworound.WedgeCount(g) }

// DoulionTriangles estimates the triangle count by coin-flip edge
// sparsification (keep probability q), averaged over trials — the
// probabilistic baseline of the paper's related work [20].
func DoulionTriangles(g *Graph, q float64, trials int, seed int64) float64 {
	return approx.DoulionTriangles(g, q, trials, seed)
}

// ColorCodingPaths estimates the number of simple p-node paths by the
// color-coding method of the paper's related work [5].
func ColorCodingPaths(g *Graph, p, trials int, seed int64) float64 {
	return approx.ColorCodingPaths(g, p, trials, seed)
}

// Multiway-join cascade (Section 7.4) and orientation-class exports.
type (
	// JoinRelation is a binary relation of a multiway join.
	JoinRelation = multijoin.Relation
	// JoinTuple is one row of a JoinRelation.
	JoinTuple = multijoin.Tuple
	// OrientationClassCount is one cycle orientation class with its size.
	OrientationClassCount = cycles.ClassCount
)

// NewJoinRelation builds a relation from tuples, removing duplicates.
func NewJoinRelation(tuples []JoinTuple) *JoinRelation { return multijoin.NewRelation(tuples) }

// CycleJoin evaluates the p-cycle join serially by backtracking, returning
// the result rows and the work performed.
func CycleJoin(rels []*JoinRelation) ([][]int64, int64) { return multijoin.CycleJoin(rels) }

// CycleJoinChain evaluates the p-cycle join as an explicit cascade of
// two-way joins — one map-reduce round per relation after the first — and
// returns the rows plus the chain with per-round metrics, so the
// intermediate-relation blowup the paper argues against is measurable.
// Fewer than three relations, or a nil one, is an error. Cancelling ctx
// aborts the round in flight and returns ctx.Err().
func CycleJoinChain(ctx context.Context, rels []*JoinRelation, cfg EngineConfig) ([][]int64, *Chain, error) {
	return multijoin.CycleJoinChain(ctx, rels, cfg)
}

// CycleClassCountsMR computes the Section 5 orientation classes of C_p and
// their sizes on the map-reduce engine; each mapper counts the classes of
// its span of strings, so at most classes × spans pairs are shipped. p must
// lie in [3, 62]. Cancelling ctx aborts the job and returns ctx.Err().
func CycleClassCountsMR(ctx context.Context, p int, cfg EngineConfig) ([]OrientationClassCount, Metrics, error) {
	return cycles.ClassCountsMR(ctx, p, cfg)
}
