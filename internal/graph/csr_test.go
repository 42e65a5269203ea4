package graph

import (
	"sort"
	"testing"
)

// TestCSRNeighborsSorted: every CSR adjacency list is ascending and matches
// the edge set.
func TestCSRNeighborsSorted(t *testing.T) {
	g := Gnm(200, 1500, 3)
	for u := 0; u < g.NumNodes(); u++ {
		ns := g.Neighbors(Node(u))
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			t.Fatalf("node %d: neighbors not sorted: %v", u, ns)
		}
		for i := 1; i < len(ns); i++ {
			if ns[i] == ns[i-1] {
				t.Fatalf("node %d: duplicate neighbor %d", u, ns[i])
			}
		}
	}
}

// TestHasEdgeMatchesEdgeSet: HasEdge over the CSR layout agrees with the
// explicit edge list on present, absent and self-loop probes.
func TestHasEdgeMatchesEdgeSet(t *testing.T) {
	g := Gnm(60, 300, 9)
	in := map[uint64]bool{}
	for _, e := range g.Edges() {
		in[e.Key()] = true
	}
	for u := Node(0); int(u) < g.NumNodes(); u++ {
		for v := Node(0); int(v) < g.NumNodes(); v++ {
			want := u != v && in[Edge{u, v}.Key()]
			if got := g.HasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

// TestHasEdgeZeroAlloc pins the allocation-free guarantee of the CSR edge
// probe (the reducer verification loops call it millions of times).
func TestHasEdgeZeroAlloc(t *testing.T) {
	g := Gnm(500, 4000, 5)
	edges := g.Edges()
	if allocs := testing.AllocsPerRun(100, func() {
		for _, e := range edges[:64] {
			if !g.HasEdge(e.U, e.V) {
				t.Fatal("edge missing")
			}
			g.HasEdge(e.U, e.V+1)
		}
	}); allocs != 0 {
		t.Fatalf("Graph.HasEdge allocates: %v allocs/run", allocs)
	}
}

// TestCommonNeighbors: the sorted merge agrees with pairwise HasEdge, for
// both Graph and Sparse, across both IntersectSorted regimes
// (merge and binary-search).
func TestCommonNeighbors(t *testing.T) {
	g := PowerLaw(300, 10, 2.2, 4) // skew exercises the galloping path
	s := SparseFromEdges(g.Edges())
	var buf []Node
	for _, e := range g.Edges()[:200] {
		want := []Node{}
		for _, w := range g.Neighbors(e.U) {
			if g.HasEdge(e.V, w) {
				want = append(want, w)
			}
		}
		got := g.CommonNeighbors(e.U, e.V, buf[:0])
		if len(got) != len(want) {
			t.Fatalf("CommonNeighbors(%v): got %v, want %v", e, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("CommonNeighbors(%v): got %v, want %v", e, got, want)
			}
		}
		sgot := s.CommonNeighbors(e.U, e.V, nil)
		for i := range want {
			if len(sgot) != len(want) || sgot[i] != want[i] {
				t.Fatalf("Sparse.CommonNeighbors(%v): got %v, want %v", e, sgot, want)
			}
		}
		buf = got
	}
}

// TestIntersectSortedAdaptive: both the merge and the binary-search regime
// produce the same ascending intersection.
func TestIntersectSortedAdaptive(t *testing.T) {
	long := make([]Node, 0, 1000)
	for i := 0; i < 1000; i++ {
		long = append(long, Node(2*i))
	}
	short := []Node{-2, 0, 3, 500, 998, 1996, 1999}
	got := IntersectSorted(short, long, nil)
	want := []Node{0, 500, 998, 1996}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Symmetric call hits the same path (arguments are swapped internally).
	got2 := IntersectSorted(long, short, nil)
	for i := range want {
		if len(got2) != len(want) || got2[i] != want[i] {
			t.Fatalf("swapped: got %v, want %v", got2, want)
		}
	}
}

// TestSparseIndexed: the bulk constructor keeps HasEdge/Neighbors/Edges
// semantics over non-dense ids, every list sorted, and the index-driven
// accessors agree with the id-driven ones.
func TestSparseIndexed(t *testing.T) {
	s := SparseFromEdges([]Edge{{10, 3}, {10, 20}, {3, 20}, {3, 10}, {10, 7}})
	if !s.HasEdge(3, 10) || !s.HasEdge(20, 10) || !s.HasEdge(7, 10) || s.HasEdge(3, 4) {
		t.Fatal("HasEdge broken")
	}
	ns := s.Neighbors(10)
	if len(ns) != 3 || ns[0] != 3 || ns[1] != 7 || ns[2] != 20 {
		t.Fatalf("adjacency not sorted: %v", ns)
	}
	if s.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", s.NumEdges())
	}
	if s.IndexOf(7) != 1 || s.IndexOf(8) != -1 {
		t.Fatalf("IndexOf broken: %d %d", s.IndexOf(7), s.IndexOf(8))
	}
	at := s.NeighborsAt(s.IndexOf(10))
	if len(at) != 3 || at[0] != 3 {
		t.Fatalf("NeighborsAt broken: %v", at)
	}
	if empty := SparseFromEdges(nil); empty.NumEdges() != 0 || len(empty.Nodes()) != 0 || empty.HasEdge(1, 2) || empty.Neighbors(1) != nil {
		t.Fatal("empty Sparse broken")
	}
}

// TestSparseFromEdges: the bulk constructor dedups, skips self-loops and
// probes without allocating.
func TestSparseFromEdges(t *testing.T) {
	s := SparseFromEdges([]Edge{{1, 2}, {2, 1}, {1, 2}, {3, 3}, {2, 5}})
	if s.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", s.NumEdges())
	}
	if !s.HasEdge(2, 1) || !s.HasEdge(5, 2) || s.HasEdge(3, 3) || s.HasEdge(1, 5) {
		t.Fatal("bulk HasEdge broken")
	}
	es := s.Edges()
	if len(es) != 2 || es[0] != (Edge{1, 2}) || es[1] != (Edge{2, 5}) {
		t.Fatalf("Edges = %v", es)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.HasEdge(1, 2)
		s.HasEdge(1, 5)
	}); allocs != 0 {
		t.Fatalf("Sparse.HasEdge allocates: %v allocs/run", allocs)
	}
}
