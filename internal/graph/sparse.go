package graph

import "slices"

// Sparse is an edge set over an arbitrary (non-dense) node id set, built by
// SparseFromEdges: its distinct edges in canonical orientation, sorted, and
// its sorted distinct nodes. Reducers do not use it — they lay each group
// out as a Fragment; Sparse is the input form of
// cq.EvaluatorSet.EvaluateAll, which evaluates a whole edge set under an
// arbitrary node order.
type Sparse struct {
	edges []Edge // canonical, sorted, distinct
	nodes []Node // sorted distinct endpoints
}

// SparseFromEdges builds a Sparse graph from the given edges, ignoring
// duplicates and self-loops: the canonical edges are packed into one word
// slice (Edge.Key), sorted and deduped, and their endpoints likewise.
func SparseFromEdges(edges []Edge) *Sparse {
	keys := make([]uint64, 0, len(edges))
	for _, e := range edges {
		if e.U != e.V {
			keys = append(keys, e.Key())
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)

	s := &Sparse{edges: make([]Edge, len(keys))}
	nodes := make([]Node, 0, 2*len(keys))
	for i, k := range keys {
		e := Edge{Node(uint32(k >> 32)), Node(uint32(k))}
		s.edges[i] = e
		nodes = append(nodes, e.U, e.V)
	}
	slices.Sort(nodes)
	s.nodes = slices.Compact(nodes)
	return s
}

// Nodes returns the sorted list of nodes with at least one incident edge.
// The returned slice is shared with the graph and must not be modified.
func (s *Sparse) Nodes() []Node { return s.nodes }

// Edges returns all edges in canonical orientation, sorted. The returned
// slice is shared with the graph and must not be modified.
func (s *Sparse) Edges() []Edge { return s.edges }
