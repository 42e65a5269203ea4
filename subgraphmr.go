// Package subgraphmr enumerates all instances of a small "sample" graph
// inside a large "data" graph using a single round of map-reduce, following
// Afrati, Fotakis and Ullman, "Enumerating Subgraph Instances Using
// Map-Reduce" (ICDE 2013).
//
// The public API is organized around three verbs:
//
//   - Plan compiles a query — a (data graph, sample graph) pair plus
//     functional options (WithStrategy, WithTargetReducers,
//     WithMemoryBudget, WithSeed, …) — into an explainable QueryPlan. The
//     default StrategyAuto costs every viable strategy with the paper's
//     Section 4 share models and Section 2 closed forms and picks the
//     cheapest; QueryPlan.Explain prints the full candidate table.
//   - Run executes a plan under a context.Context and materializes a
//     unified Result (instances, exact count, per-job metrics) for every
//     strategy, the triangle algorithms and the two-round cascade
//     included. Cancelling the context aborts the engine cleanly.
//   - Instances executes a plan as a streaming iterator
//     (iter.Seq2[[]Node, error]): instances arrive one at a time at the
//     consumer's pace, breaking the loop or cancelling the context tears
//     the engine down promptly, and output never has to fit in memory
//     (bound the shuffle itself with WithMemoryBudget). Stream is the
//     callback-shaped equivalent that also returns metrics.
//
// Supporting surface:
//
//   - Data graphs: build with NewGraphBuilder or the generators (Gnm,
//     PowerLaw, CycleGraph, …), or load with ReadGraph.
//   - Sample graphs: the catalog (Triangle, Square, Lollipop, CycleSample,
//     …) or NewSample for custom patterns.
//   - The serial algorithms of Sections 6–7 (SerialTriangles, OddCycles,
//     EnumerateByDecomposition, EnumerateBoundedDegree) are exposed for
//     single-machine use and as baselines.
//   - The analysis toolkit (CQsFor, MergedCQsFor, CycleCQs, OptimizeShares)
//     exposes the CQ generation of Sections 3 and 5 and the share
//     optimization of Section 4 for planning without running a job.
//   - Every job runs on one pipelined engine, configured by EngineConfig.
//     Setting EngineConfig.MemoryBudget bounds reduce-worker memory —
//     beyond it the engine spills sorted runs to disk and merge-streams
//     them into the reducers; see docs/ARCHITECTURE.md and docs/API.md.
//
// The pre-Plan entry points (Enumerate, TrianglePartition, …) are gone;
// docs/API.md has the migration table.
//
// Every enumeration method produces each instance exactly once; instances
// are reported as assignments of data nodes to sample variables.
package subgraphmr

import (
	"io"

	"subgraphmr/internal/core"
	"subgraphmr/internal/cq"
	"subgraphmr/internal/cycles"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
	"subgraphmr/internal/shares"
)

// Core graph types.
type (
	// Graph is an immutable undirected data graph.
	Graph = graph.Graph
	// Node identifies a data-graph node.
	Node = graph.Node
	// Edge is an undirected data-graph edge in canonical (U < V) form.
	Edge = graph.Edge
	// GraphBuilder accumulates edges for a Graph.
	GraphBuilder = graph.Builder
	// Sample is a pattern graph whose instances are enumerated.
	Sample = sample.Sample
	// CQ is a conjunctive query compiled from a sample graph.
	CQ = cq.CQ
	// CycleCQ is a Section 5 cycle conjunctive query with its orientation
	// metadata.
	CycleCQ = cycles.CycleCQ
	// Metrics carries the measured costs of a map-reduce job.
	Metrics = mapreduce.Metrics
	// EngineConfig controls the pipelined map-reduce engine (map workers,
	// shuffle partitions, memory budget).
	EngineConfig = mapreduce.Config
	// Chain records the rounds of a multi-round map-reduce job with their
	// metrics; CycleJoinChain returns one.
	Chain = mapreduce.Chain
	// RoundStats records one executed round of a Chain.
	RoundStats = mapreduce.RoundStats
	// Result is the outcome of Run and Stream — one shape for every
	// strategy.
	Result = core.Result
	// JobStats describes one map-reduce job of an enumeration.
	JobStats = core.JobStats
	// ShareModel is a Section 4 communication-cost model.
	ShareModel = shares.Model
	// ShareSubgoal is one subgoal of a ShareModel.
	ShareSubgoal = shares.Subgoal
	// ShareSolution is an optimized share assignment.
	ShareSolution = shares.Solution
	// TwoPath is a properly ordered 2-path (Lemma 7.1).
	TwoPath = serial.TwoPath
	// DecompositionPart is one part of a Theorem 7.2 decomposition.
	DecompositionPart = sample.Part
)

// NewGraphBuilder returns a builder for a data graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphFromEdges builds a data graph with n nodes from an edge list.
func GraphFromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Gnm returns an Erdős–Rényi random graph with n nodes and m edges.
func Gnm(n, m int, seed int64) *Graph { return graph.Gnm(n, m, seed) }

// Gnp returns an Erdős–Rényi random graph with edge probability p.
func Gnp(n int, p float64, seed int64) *Graph { return graph.Gnp(n, p, seed) }

// PowerLaw returns a Chung–Lu power-law random graph (social-network-like
// degree skew).
func PowerLaw(n int, avgDeg, exponent float64, seed int64) *Graph {
	return graph.PowerLaw(n, avgDeg, exponent, seed)
}

// CycleGraph returns the data graph C_n.
func CycleGraph(n int) *Graph { return graph.CycleGraph(n) }

// CompleteGraph returns the data graph K_n.
func CompleteGraph(n int) *Graph { return graph.CompleteGraph(n) }

// GridGraph returns the rows×cols grid data graph.
func GridGraph(rows, cols int) *Graph { return graph.GridGraph(rows, cols) }

// RegularTree returns the Δ-regular tree of the given depth (Section 7.3).
func RegularTree(delta, depth int) *Graph { return graph.RegularTree(delta, depth) }

// ReadGraph parses an edge-list file ("u v" per line, optional
// "# nodes N" header).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes g in the edge-list format ReadGraph parses.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// NewSample builds a custom sample graph on p nodes with the given edges
// (and optional display names).
func NewSample(p int, edges [][2]int, names ...string) (*Sample, error) {
	return sample.New(p, edges, names...)
}

// Sample catalog (Figs. 3, 4 and 8 of the paper).
func Triangle() *Sample          { return sample.Triangle() }
func Square() *Sample            { return sample.Square() }
func Lollipop() *Sample          { return sample.Lollipop() }
func CycleSample(p int) *Sample  { return sample.Cycle(p) }
func CliqueSample(p int) *Sample { return sample.Complete(p) }
func PathSample(p int) *Sample   { return sample.Path(p) }
func StarSample(p int) *Sample   { return sample.Star(p) }

// NamedSample returns a catalog sample by name ("triangle", "square",
// "lollipop", "c5", "k4", "path4", "star5", "q3", …) or nil if unknown.
func NamedSample(name string) *Sample { return sample.Named(name) }

// CQsFor compiles the sample graph into one conjunctive query per coset of
// Sym(p)/Aut(S) (Theorem 3.1).
func CQsFor(s *Sample) []*CQ { return cq.GenerateForSample(s) }

// MergedCQsFor compiles the sample and merges CQs with identical edge
// orientations (Section 3.3) — the set the map-reduce strategies evaluate.
func MergedCQsFor(s *Sample) []*CQ { return cq.MergeByOrientation(cq.GenerateForSample(s)) }

// CycleCQs generates the minimum CQ set for the cycle C_p using the
// Section 5 run-sequence algorithm.
func CycleCQs(p int) []CycleCQ { return cycles.Generate(p) }

// OptimizeShares solves the Section 4 share-optimization problem for k
// reducers: minimize communication subject to the product of shares = k.
func OptimizeShares(m ShareModel, k float64) (ShareSolution, error) { return m.Solve(k) }

// VariableOrientedModel builds the Section 4.3 cost model for a CQ set.
func VariableOrientedModel(p int, cqs []*CQ) ShareModel {
	return shares.VariableOrientedModel(p, cqs)
}

// SerialTriangles enumerates every triangle of g exactly once in O(m^{3/2})
// (the Section 2 serial baseline), returning the work performed.
func SerialTriangles(g *Graph, emit func(a, b, c Node)) int64 {
	return serial.Triangles(g, emit)
}

// CountTriangles returns the number of triangles in g.
func CountTriangles(g *Graph) int64 { return serial.CountTriangles(g) }

// OddCycles enumerates every cycle C_{2k+1} of g exactly once using the
// paper's Algorithm 1 (Theorem 7.1), a (0, (2k+1)/2)-algorithm.
func OddCycles(g *Graph, k int, emit func(cycle []Node)) int64 {
	return serial.OddCycles(g, k, emit)
}

// ProperlyOrdered2Paths enumerates the properly ordered 2-paths of g
// (Lemma 7.1); there are O(m^{3/2}) of them.
func ProperlyOrdered2Paths(g *Graph, emit func(TwoPath)) int64 {
	return serial.ProperlyOrdered2Paths(g, emit)
}

// BruteForce enumerates every instance of s in g exactly once by
// exhaustive search — the reference oracle.
func BruteForce(g *Graph, s *Sample) [][]Node { return serial.BruteForce(g, s) }

// EnumerateByDecomposition runs the Theorem 7.2 serial algorithm: decompose
// s into edges, odd-Hamiltonian parts and isolated nodes, enumerate parts,
// and join. Pass nil parts to use the optimal decomposition.
func EnumerateByDecomposition(g *Graph, s *Sample, parts []DecompositionPart) ([][]Node, int64, error) {
	return serial.EnumerateByDecomposition(g, s, parts)
}

// EnumerateBoundedDegree runs the Theorem 7.3 serial algorithm, which on
// data graphs of maximum degree Δ takes O(m·Δ^{p-2}).
func EnumerateBoundedDegree(g *Graph, s *Sample) ([][]Node, int64, error) {
	return serial.EnumerateBoundedDegree(g, s)
}

// BarabasiAlbert returns a preferential-attachment random graph (heavy
// hubs): m0-clique seed, each new node attaches to k existing nodes
// proportionally to degree.
func BarabasiAlbert(n, m0, k int, seed int64) *Graph {
	return graph.BarabasiAlbert(n, m0, k, seed)
}

// Theorem43Shares applies Theorem 4.3's closed form when the sample's
// orientation structure matches one of its cases; see
// shares.Theorem43Shares.
func Theorem43Shares(s *Sample, k float64) ([]float64, bool) {
	uses := cq.EdgeUses(cq.MergeByOrientation(cq.GenerateForSample(s)))
	degrees := make([]int, s.P())
	for i := range degrees {
		degrees[i] = s.Degree(i)
	}
	sh, which := shares.Theorem43Shares(s.P(), degrees, uses, k)
	return sh, which != shares.Theorem43None
}

// Convertible is the Theorem 6.1 condition: a serial O(n^α·m^β) algorithm
// for a p-node sample converts to an equal-work map-reduce algorithm when
// α + 2β ≥ p.
func Convertible(alpha, beta float64, p int) bool {
	return shares.Convertible(alpha, beta, p)
}
