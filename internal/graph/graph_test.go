package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(4)
	if !b.AddEdge(0, 1) {
		t.Fatal("first add should be new")
	}
	if b.AddEdge(1, 0) {
		t.Error("reversed duplicate should be rejected")
	}
	if b.AddEdge(2, 2) {
		t.Error("self-loop should be rejected")
	}
	b.AddEdge(2, 3)
	g := b.Graph()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("absent edge reported present")
	}
	if g.HasEdge(1, 1) {
		t.Error("self-loop reported present")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(3).AddEdge(0, 3)
}

func TestEdgeCanonAndKey(t *testing.T) {
	e := Edge{5, 2}
	if c := e.Canon(); c.U != 2 || c.V != 5 {
		t.Fatalf("Canon = %v", c)
	}
	if (Edge{5, 2}).Key() != (Edge{2, 5}).Key() {
		t.Error("Key should be orientation-independent")
	}
	if (Edge{1, 2}).Key() == (Edge{1, 3}).Key() {
		t.Error("distinct edges share a key")
	}
}

func TestAdjacencyMatchesEdges(t *testing.T) {
	g := Gnm(50, 200, 1)
	count := 0
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(Node(u)) {
			if !g.HasEdge(Node(u), v) {
				t.Fatalf("adjacency lists edge (%d,%d) not in set", u, v)
			}
			count++
		}
	}
	if count != 2*g.NumEdges() {
		t.Fatalf("adjacency entries %d, want %d", count, 2*g.NumEdges())
	}
	sum := 0
	for u := 0; u < g.NumNodes(); u++ {
		sum += g.Degree(Node(u))
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d, want %d (handshake lemma)", sum, 2*g.NumEdges())
	}
}

func TestGnmExactEdgeCount(t *testing.T) {
	for _, m := range []int{0, 1, 10, 100} {
		g := Gnm(30, m, 7)
		if g.NumEdges() != m {
			t.Errorf("Gnm(30,%d): edges = %d", m, g.NumEdges())
		}
	}
	// Request more than possible: clamps to the complete graph.
	g := Gnm(5, 100, 7)
	if g.NumEdges() != 10 {
		t.Errorf("over-full Gnm: edges = %d, want 10", g.NumEdges())
	}
}

func TestGnmDeterministic(t *testing.T) {
	a, b := Gnm(40, 120, 99), Gnm(40, 120, 99)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed, different sizes")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed, different edges")
		}
	}
}

func TestGenerators(t *testing.T) {
	if g := CycleGraph(7); g.NumEdges() != 7 || g.MaxDegree() != 2 {
		t.Error("CycleGraph(7) malformed")
	}
	if g := CompleteGraph(6); g.NumEdges() != 15 {
		t.Error("CompleteGraph(6) should have 15 edges")
	}
	if g := PathGraph(5); g.NumEdges() != 4 {
		t.Error("PathGraph(5) should have 4 edges")
	}
	if g := StarGraph(9); g.NumEdges() != 8 || g.Degree(0) != 8 {
		t.Error("StarGraph(9) malformed")
	}
	if g := GridGraph(3, 4); g.NumEdges() != 3*3+2*4 {
		t.Errorf("GridGraph(3,4): %d edges", g.NumEdges())
	}
	if g := CompleteBipartite(3, 4); g.NumEdges() != 12 {
		t.Error("K_{3,4} should have 12 edges")
	}
}

func TestRegularTree(t *testing.T) {
	g := RegularTree(3, 3)
	if g.NumEdges() != g.NumNodes()-1 {
		t.Fatalf("tree: m=%d, n=%d", g.NumEdges(), g.NumNodes())
	}
	// All internal nodes have degree exactly delta.
	for u := 0; u < g.NumNodes(); u++ {
		d := g.Degree(Node(u))
		if d != 1 && d != 3 {
			t.Fatalf("node %d has degree %d; want 1 (leaf) or 3 (internal)", u, d)
		}
	}
	if g.Degree(0) != 3 {
		t.Error("root should have degree delta")
	}
}

func TestPowerLawProducesSkew(t *testing.T) {
	g := PowerLaw(400, 8, 2.5, 3)
	if g.NumEdges() < 400 {
		t.Fatalf("power-law graph too sparse: %d edges", g.NumEdges())
	}
	if g.MaxDegree() < 3*(2*g.NumEdges())/g.NumNodes() {
		t.Errorf("expected a heavy hub: max degree %d, avg %d",
			g.MaxDegree(), 2*g.NumEdges()/g.NumNodes())
	}
}

func TestDegreeRank(t *testing.T) {
	g := StarGraph(5)
	rank := g.DegreeRank()
	// Hub (node 0, degree 4) must come last.
	if rank[0] != 4 {
		t.Errorf("hub rank = %d, want 4", rank[0])
	}
	less := g.DegreeLess()
	if !less(1, 0) || less(0, 1) {
		t.Error("leaves must precede the hub in degree order")
	}
	// Ranks are a permutation.
	seen := make([]bool, 5)
	for _, r := range rank {
		if seen[r] {
			t.Fatal("duplicate rank")
		}
		seen[r] = true
	}
}

func TestNodeHashRangeAndDeterminism(t *testing.T) {
	h := NodeHash{Seed: 42, B: 7}
	counts := make([]int, 7)
	for u := 0; u < 7000; u++ {
		b := h.Bucket(Node(u))
		if b < 0 || b >= 7 {
			t.Fatalf("bucket %d out of range", b)
		}
		counts[b]++
		if b != h.Bucket(Node(u)) {
			t.Fatal("hash not deterministic")
		}
	}
	for b, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("bucket %d badly balanced: %d of 7000", b, c)
		}
	}
}

func TestHashLessIsStrictTotalOrder(t *testing.T) {
	less := HashLess(NodeHash{Seed: 5, B: 4})
	err := quick.Check(func(a, b uint16) bool {
		u, v := Node(a%100), Node(b%100)
		if u == v {
			return !less(u, v)
		}
		return less(u, v) != less(v, u) // exactly one direction
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSparse(t *testing.T) {
	s := SparseFromEdges([]Edge{{10, 3}, {3, 10}, {4, 4}, {10, 20}})
	if !s.HasEdge(3, 10) || s.HasEdge(3, 20) || s.HasEdge(4, 4) {
		t.Fatal("sparse HasEdge broken")
	}
	if got := s.Nodes(); len(got) != 3 || got[0] != 3 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("Nodes = %v", got)
	}
	if s.NumEdges() != 2 || s.Degree(10) != 2 {
		t.Fatal("sparse counts wrong")
	}
	es := s.Edges()
	if len(es) != 2 || es[0] != (Edge{3, 10}) || es[1] != (Edge{10, 20}) {
		t.Fatalf("Edges = %v", es)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := Gnm(64, 150, 11)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i, e := range g.Edges() {
		if g2.Edges()[i] != e {
			t.Fatal("round trip changed edges")
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("0 x\n")); err == nil {
		t.Error("garbage line should fail")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("# nodes 2\n0 5\n")); err == nil {
		t.Error("node id beyond declared count should fail")
	}
	g, err := ReadEdgeList(bytes.NewBufferString("# a comment\n0 1\n\n1 2\n"))
	if err != nil || g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("comment/blank handling broken: %v %v", g, err)
	}
}

func TestGnpDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_ = rng
	g := Gnp(100, 0.1, 5)
	want := 0.1 * float64(100*99/2)
	if f := float64(g.NumEdges()); f < want*0.7 || f > want*1.3 {
		t.Errorf("Gnp density off: %v edges, want about %v", f, want)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 4, 3, 7)
	wantEdges := 4*3/2 + (500-4)*3
	if g.NumEdges() != wantEdges {
		t.Errorf("BA edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	avg := 2 * g.NumEdges() / g.NumNodes()
	if g.MaxDegree() < 4*avg {
		t.Errorf("BA should grow hubs: maxdeg %d, avg %d", g.MaxDegree(), avg)
	}
	// Deterministic per seed.
	g2 := BarabasiAlbert(500, 4, 3, 7)
	for i, e := range g.Edges() {
		if g2.Edges()[i] != e {
			t.Fatal("BA not deterministic")
		}
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m0 < k")
		}
	}()
	BarabasiAlbert(10, 2, 3, 1)
}
