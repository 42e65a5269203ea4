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
//   - The serial algorithms of Section 7 (OddCycles, ProperlyOrdered2Paths,
//     EnumerateByDecomposition) and the oracles (BruteForce,
//     CountTriangles) are exposed for single-machine use and as baselines.
//   - Directed, labeled patterns (the conclusions' extension) run through
//     EnumerateDirectedContext with Plan's options.
//   - Every job runs on one pipelined engine, configured by Plan's options
//     (WithParallelism, WithPartitions, WithMemoryBudget, WithSpillDir).
//     WithMemoryBudget bounds the cascade's reduce-worker memory — beyond
//     it the engine spills sorted runs to disk and merge-streams them into
//     the reducers; the share-hashed strategies store each edge once and
//     never spill. See docs/ARCHITECTURE.md and docs/API.md.
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
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
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
	// Metrics carries the measured costs of a map-reduce job.
	Metrics = mapreduce.Metrics
	// Result is the outcome of Run and Stream — one shape for every
	// strategy.
	Result = core.Result
	// JobStats describes one map-reduce job of an enumeration.
	JobStats = core.JobStats
	// TwoPath is a properly ordered 2-path (Lemma 7.1).
	TwoPath = serial.TwoPath
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
// s optimally into edges, odd-Hamiltonian parts and isolated nodes,
// enumerate the parts, and join. It returns the instances and the work
// performed.
func EnumerateByDecomposition(g *Graph, s *Sample) ([][]Node, int64) {
	return serial.EnumerateByDecomposition(g, s)
}

// BarabasiAlbert returns a preferential-attachment random graph (heavy
// hubs): m0-clique seed, each new node attaches to k existing nodes
// proportionally to degree.
func BarabasiAlbert(n, m0, k int, seed int64) *Graph {
	return graph.BarabasiAlbert(n, m0, k, seed)
}
