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

// TestCommonNeighbors: the sorted merge agrees with pairwise HasEdge across
// both IntersectSorted regimes (merge and binary-search).
func TestCommonNeighbors(t *testing.T) {
	g := PowerLaw(300, 10, 2.2, 4) // skew exercises the galloping path
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

// TestSparseFromEdges: the bulk constructor dedups either orientation,
// skips self-loops and lists the sorted distinct nodes of a non-dense id set.
func TestSparseFromEdges(t *testing.T) {
	s := SparseFromEdges([]Edge{{10, 3}, {3, 10}, {4, 4}, {10, 20}, {20, 10}, {10, 3}})
	if got := s.Nodes(); len(got) != 3 || got[0] != 3 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("Nodes = %v", got)
	}
	if es := s.Edges(); len(es) != 2 || es[0] != (Edge{3, 10}) || es[1] != (Edge{10, 20}) {
		t.Fatalf("Edges = %v", es)
	}
	if empty := SparseFromEdges(nil); len(empty.Nodes()) != 0 || len(empty.Edges()) != 0 {
		t.Fatal("empty Sparse broken")
	}
}
