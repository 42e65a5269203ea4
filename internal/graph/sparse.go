package graph

import "slices"

// Sparse is a small immutable adjacency structure over an arbitrary
// (non-dense) node id set, built by SparseFromEdges: a sorted distinct-node
// index, one neighbor slab, per-node offsets, every list ascending, plus an
// open-addressing id→index table. Node identifiers keep their global
// meaning but only a few appear. Every lookup runs over flat arrays: no Go
// map, no per-probe allocation. The triangle reducers enumerate over it;
// the CQ reducers use a Fragment, which additionally renumbers the nodes.
type Sparse struct {
	nodes []Node  // sorted distinct nodes with at least one incident edge
	off   []int32 // len(nodes)+1; neighbors of nodes[i] are nbr[off[i]:off[i+1]]
	nbr   []Node  // neighbor slab (global ids), each list ascending
	index nodeIndex
}

// pack encodes a directed adjacency entry for sorting: primary key u,
// secondary key v, both as unsigned words so slices.Sort orders them.
func pack(u, v Node) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// SparseFromEdges builds a Sparse graph from the given edges, ignoring
// duplicates and self-loops: both directions of every edge are packed into
// one word slice, sorted and deduped, and the CSR arrays are carved out in
// a single scan.
func SparseFromEdges(edges []Edge) *Sparse {
	pairs := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		pairs = append(pairs, pack(e.U, e.V), pack(e.V, e.U))
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)

	s := &Sparse{nbr: make([]Node, len(pairs))}
	var prev Node
	for i, p := range pairs {
		u, v := Node(uint32(p>>32)), Node(uint32(p))
		if i == 0 || u != prev {
			s.nodes = append(s.nodes, u)
			s.off = append(s.off, int32(i))
			prev = u
		}
		s.nbr[i] = v
	}
	s.off = append(s.off, int32(len(pairs)))
	s.index.reset(len(s.nodes))
	for i, u := range s.nodes {
		s.index.slot[s.index.find(s.nodes, u)] = int32(i)
	}
	return s
}

// nodeIndex is an open-addressing table from node id to a position in a
// node list kept beside it (Sparse.nodes, the Fragment's discovery list):
// power-of-2 sized at ≥ 2× load, linear probing, so a lookup is one
// multiply and (almost always) one slot probe. The table stores positions
// only; the ids live in the list, which every call takes.
type nodeIndex struct {
	slot []int32 // position in the node list, -1 = empty
	mask uint32
}

// reset empties the table and sizes it for up to n nodes, reusing its
// storage when it is large enough.
func (x *nodeIndex) reset(n int) {
	size := 4
	for size < 2*n {
		size *= 2
	}
	if cap(x.slot) < size {
		x.slot = make([]int32, size)
	}
	x.slot = x.slot[:size]
	for i := range x.slot {
		x.slot[i] = -1
	}
	x.mask = uint32(size - 1)
}

// find returns the slot of u: the one holding its position in nodes, or
// the empty one where that position belongs.
//
//lint:hotpath
func (x *nodeIndex) find(nodes []Node, u Node) uint32 {
	h := idHash(u) & x.mask
	for j := x.slot[h]; j >= 0 && nodes[j] != u; j = x.slot[h] {
		h = (h + 1) & x.mask
	}
	return h
}

// idHash mixes a node id for the open-addressing table (splitmix32-style
// finalizer).
func idHash(u Node) uint32 {
	x := uint32(u)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// IndexOf returns the position of u in Nodes(), or -1 if u has no incident
// edge.
func (s *Sparse) IndexOf(u Node) int {
	return int(s.index.slot[s.index.find(s.nodes, u)])
}

// HasEdge reports whether {u, v} is present: one table probe and one binary
// search over flat arrays; it never allocates.
func (s *Sparse) HasEdge(u, v Node) bool {
	return u != v && containsSorted(s.Neighbors(u), v)
}

// CommonNeighbors appends the common neighborhood N(u) ∩ N(v) to dst and
// returns it, as a sorted merge over the adjacency lists.
func (s *Sparse) CommonNeighbors(u, v Node, dst []Node) []Node {
	return IntersectSorted(s.Neighbors(u), s.Neighbors(v), dst)
}

// Neighbors returns the neighbors of u, sorted ascending.
func (s *Sparse) Neighbors(u Node) []Node {
	i := s.IndexOf(u)
	if i < 0 {
		return nil
	}
	return s.nbr[s.off[i]:s.off[i+1]]
}

// NeighborsAt returns the neighbors of Nodes()[i], letting index-driven
// loops (the triangle reducers) skip the per-node table probe.
func (s *Sparse) NeighborsAt(i int) []Node {
	return s.nbr[s.off[i]:s.off[i+1]]
}

// Degree returns the degree of u.
func (s *Sparse) Degree(u Node) int { return len(s.Neighbors(u)) }

// NumEdges returns the number of distinct edges.
func (s *Sparse) NumEdges() int { return len(s.nbr) / 2 }

// Nodes returns the sorted list of nodes with at least one incident edge.
// The returned slice is shared with the graph and must not be modified.
func (s *Sparse) Nodes() []Node { return s.nodes }

// Edges returns all edges in canonical orientation, sorted.
func (s *Sparse) Edges() []Edge {
	out := make([]Edge, 0, s.NumEdges())
	// Nodes ascending × sorted lists ⇒ canonical edges in sorted order.
	for i, u := range s.nodes {
		for _, v := range s.NeighborsAt(i) {
			if v > u {
				out = append(out, Edge{u, v})
			}
		}
	}
	return out
}
