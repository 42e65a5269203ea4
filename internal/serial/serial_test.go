package serial

import (
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
)

// petersen returns the Petersen graph: outer C5 (0-4), spokes, inner
// pentagram (5-9). It has exactly 12 five-cycles and no triangles or
// squares — a classic witness for cycle enumerators.
func petersen() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.Node(i), graph.Node((i+1)%5))
		b.AddEdge(graph.Node(i), graph.Node(i+5))
		b.AddEdge(graph.Node(i+5), graph.Node((i+2)%5+5))
	}
	return b.Graph()
}

func keySet(s *sample.Sample, assignments [][]graph.Node) map[string]bool {
	set := make(map[string]bool, len(assignments))
	for _, phi := range assignments {
		set[s.Key(phi)] = true
	}
	return set
}

func TestTrianglesKnownCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K4", graph.CompleteGraph(4), 4},
		{"K5", graph.CompleteGraph(5), 10},
		{"K6", graph.CompleteGraph(6), 20},
		{"C5", graph.CycleGraph(5), 0},
		{"petersen", petersen(), 0},
		{"star", graph.StarGraph(10), 0},
		{"grid", graph.GridGraph(4, 4), 0},
	}
	for _, c := range cases {
		if got := CountTriangles(c.g); got != c.want {
			t.Errorf("%s: %d triangles, want %d", c.name, got, c.want)
		}
	}
}

func TestTrianglesMatchBruteForce(t *testing.T) {
	tri := sample.Triangle()
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Gnm(25, 90, seed)
		want := keySet(tri, BruteForce(g, tri))
		got := make(map[string]bool)
		dups := 0
		Triangles(g, func(a, b, c graph.Node) {
			k := tri.Key([]graph.Node{a, b, c})
			if got[k] {
				dups++
			}
			got[k] = true
		})
		if dups != 0 {
			t.Errorf("seed %d: %d duplicate triangles", seed, dups)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d triangles, oracle %d", seed, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("seed %d: missing triangle %s", seed, k)
			}
		}
	}
}

func TestProperlyOrdered2PathsProperties(t *testing.T) {
	g := graph.Gnm(30, 120, 3)
	rank := g.DegreeRank()
	count := int64(0)
	n := ProperlyOrdered2Paths(g, func(tp TwoPath) {
		count++
		if tp.U >= tp.W {
			t.Fatal("endpoints must be id-ordered")
		}
		if rank[tp.V] >= rank[tp.U] || rank[tp.V] >= rank[tp.W] {
			t.Fatal("midpoint must precede endpoints in degree order")
		}
		if !g.HasEdge(tp.V, tp.U) || !g.HasEdge(tp.V, tp.W) {
			t.Fatal("2-path edges must exist")
		}
	})
	if n != count {
		t.Errorf("returned count %d != emitted %d", n, count)
	}
	// Exact census: sum over nodes of C(|Γ<(v)|, 2).
	var want int64
	for v := 0; v < g.NumNodes(); v++ {
		succ := 0
		for _, u := range g.Neighbors(graph.Node(v)) {
			if rank[u] > rank[graph.Node(v)] {
				succ++
			}
		}
		want += int64(succ * (succ - 1) / 2)
	}
	if count != want {
		t.Errorf("2-path count %d, want %d", count, want)
	}
}

func TestProperlyOrdered2PathsStarHasNone(t *testing.T) {
	// The hub of a star comes last in degree order, so no properly ordered
	// 2-path exists — the heart of the O(m^{3/2}) bound.
	n := ProperlyOrdered2Paths(graph.StarGraph(20), func(TwoPath) {})
	if n != 0 {
		t.Errorf("star has %d properly ordered 2-paths, want 0", n)
	}
}

func TestTwoPathBoundM32(t *testing.T) {
	// Lemma 7.1: the number of properly ordered 2-paths is O(m^{3/2}).
	// Check the constant is small on assorted graphs.
	graphs := []*graph.Graph{
		graph.Gnm(60, 400, 1),
		graph.CompleteGraph(16),
		graph.PowerLaw(300, 10, 2.2, 2),
		graph.StarGraph(100),
	}
	for _, g := range graphs {
		count := ProperlyOrdered2Paths(g, func(TwoPath) {})
		m := float64(g.NumEdges())
		bound := 2 * m * sqrtf(m)
		if float64(count) > bound {
			t.Errorf("2-paths %d exceed 2·m^{3/2} = %.0f (m=%d)", count, bound, g.NumEdges())
		}
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	y := x
	for i := 0; i < 40; i++ {
		y = (y + x/y) / 2
	}
	return y
}

func TestOddCyclesPentagonsPetersen(t *testing.T) {
	g := petersen()
	count := 0
	seen := map[string]bool{}
	c5 := sample.Cycle(5)
	OddCycles(g, 2, func(cycle []graph.Node) {
		count++
		// Verify it is a real 5-cycle.
		for i := 0; i < 5; i++ {
			if !g.HasEdge(cycle[i], cycle[(i+1)%5]) {
				t.Fatalf("emitted non-cycle %v", cycle)
			}
		}
		k := c5.Key(cycle)
		if seen[k] {
			t.Fatalf("cycle %v found twice", cycle)
		}
		seen[k] = true
	})
	if count != 12 {
		t.Errorf("Petersen graph has %d pentagons per OddCycle, want 12", count)
	}
}

func TestOddCyclesMatchDFSOracle(t *testing.T) {
	c5 := sample.Cycle(5)
	for seed := int64(0); seed < 4; seed++ {
		g := graph.Gnm(15, 40, seed)
		want := map[string]bool{}
		CyclesDFS(g, 5, func(cycle []graph.Node) { want[c5.Key(cycle)] = true })
		got := map[string]bool{}
		OddCycles(g, 2, func(cycle []graph.Node) {
			k := c5.Key(cycle)
			if got[k] {
				t.Fatalf("seed %d: duplicate cycle %v", seed, cycle)
			}
			got[k] = true
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: OddCycle found %d pentagons, oracle %d", seed, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("seed %d: missing pentagon %s", seed, k)
			}
		}
	}
}

func TestOddCyclesHeptagons(t *testing.T) {
	c7 := sample.Cycle(7)
	g := graph.Gnm(12, 26, 9)
	want := map[string]bool{}
	CyclesDFS(g, 7, func(cycle []graph.Node) { want[c7.Key(cycle)] = true })
	got := map[string]bool{}
	OddCycles(g, 3, func(cycle []graph.Node) {
		k := c7.Key(cycle)
		if got[k] {
			t.Fatalf("duplicate heptagon %v", cycle)
		}
		got[k] = true
	})
	if len(got) != len(want) {
		t.Fatalf("OddCycle found %d heptagons, oracle %d", len(got), len(want))
	}
}

func TestOddCyclesPanicsOnSmallK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k < 2")
		}
	}()
	OddCycles(graph.CycleGraph(3), 1, nil)
}

func TestCyclesDFSSquareCounts(t *testing.T) {
	if got := CountCycles(graph.CompleteGraph(4), 4); got != 3 {
		t.Errorf("K4 has %d squares, want 3", got)
	}
	if got := CountCycles(graph.CompleteBipartite(2, 3), 4); got != 3 {
		t.Errorf("K_{2,3} has %d squares, want 3", got)
	}
	if got := CountCycles(graph.CycleGraph(6), 6); got != 1 {
		t.Errorf("C6 has %d hexagons, want 1", got)
	}
	if got := CountCycles(petersen(), 5); got != 12 {
		t.Errorf("Petersen has %d pentagons, want 12", got)
	}
}

func TestBruteForceKnownCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		s    *sample.Sample
		want int
	}{
		{"triangles in K5", graph.CompleteGraph(5), sample.Triangle(), 10},
		{"squares in K4", graph.CompleteGraph(4), sample.Square(), 3},
		{"squares in K23", graph.CompleteBipartite(2, 3), sample.Square(), 3},
		{"lollipops in K4", graph.CompleteGraph(4), sample.Lollipop(), 12},
		{"edges in K5", graph.CompleteGraph(5), sample.SingleEdge(), 10},
		{"C5 in petersen", petersen(), sample.Cycle(5), 12},
		{"stars3 in star", graph.StarGraph(5), sample.Star(3), 6}, // C(4,2)
	}
	for _, c := range cases {
		got := BruteForce(c.g, c.s)
		if len(got) != c.want {
			t.Errorf("%s: %d instances, want %d", c.name, len(got), c.want)
		}
		seen := map[string]bool{}
		for _, phi := range got {
			if !c.s.IsInstance(c.g, phi) {
				t.Errorf("%s: invalid instance %v", c.name, phi)
			}
			if !c.s.IsCanonical(phi) {
				t.Errorf("%s: non-canonical assignment %v", c.name, phi)
			}
			k := c.s.Key(phi)
			if seen[k] {
				t.Errorf("%s: duplicate instance %v", c.name, phi)
			}
			seen[k] = true
		}
	}
}

func TestDecompositionMatchesOracle(t *testing.T) {
	samples := []*sample.Sample{
		sample.SingleEdge(),
		sample.Triangle(),
		sample.Square(),
		sample.Lollipop(),
		sample.Cycle(5),
		sample.Path(3),
		sample.Star(4),
		sample.Complete(4),
		sample.TriangleWithPendantPath(),
	}
	for seed := int64(0); seed < 3; seed++ {
		g := graph.Gnm(13, 32, seed)
		for _, s := range samples {
			want := keySet(s, BruteForce(g, s))
			got, _ := EnumerateByDecomposition(g, s)
			gotSet := map[string]bool{}
			for _, phi := range got {
				k := s.Key(phi)
				if gotSet[k] {
					t.Fatalf("seed %d %v: duplicate %v", seed, s, phi)
				}
				gotSet[k] = true
			}
			if len(gotSet) != len(want) {
				t.Fatalf("seed %d %v: got %d instances, oracle %d", seed, s, len(gotSet), len(want))
			}
			for k := range want {
				if !gotSet[k] {
					t.Fatalf("seed %d %v: missing %s", seed, s, k)
				}
			}
		}
	}
}

func TestBoundedDegreeMatchesOracle(t *testing.T) {
	samples := []*sample.Sample{
		sample.SingleEdge(),
		sample.Triangle(),
		sample.Square(),
		sample.Lollipop(),
		sample.Cycle(5),
		sample.Path(4),
		sample.Star(4),
		sample.Complete(4),
	}
	for seed := int64(0); seed < 3; seed++ {
		g := graph.Gnm(14, 36, seed)
		for _, s := range samples {
			want := keySet(s, BruteForce(g, s))
			got, _, err := EnumerateBoundedDegree(g, s)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, s, err)
			}
			gotSet := map[string]bool{}
			for _, phi := range got {
				k := s.Key(phi)
				if gotSet[k] {
					t.Fatalf("seed %d %v: duplicate %v", seed, s, phi)
				}
				gotSet[k] = true
			}
			if len(gotSet) != len(want) {
				t.Fatalf("seed %d %v: got %d, oracle %d", seed, s, len(gotSet), len(want))
			}
		}
	}
}

func TestEliminationOrderErrors(t *testing.T) {
	disconnected := sample.MustNew(3, [][2]int{{0, 1}})
	if _, _, err := EliminationOrder(disconnected); err == nil {
		t.Error("disconnected sample should fail")
	}
	single := sample.MustNew(1, nil)
	if _, _, err := EliminationOrder(single); err == nil {
		t.Error("single node should fail")
	}
	// A valid order peels p-2 nodes and leaves an edge.
	base, peeled, err := EliminationOrder(sample.Cycle(6))
	if err != nil || len(peeled) != 4 || !sample.Cycle(6).HasEdge(base[0], base[1]) {
		t.Errorf("C6 elimination order broken: %v %v %v", base, peeled, err)
	}
}

func TestStarCountRegularTree(t *testing.T) {
	// Section 7.3: a Δ-regular tree contains Θ(m·Δ^{p-2}) p-stars; the exact
	// count is Σ_v C(deg(v), p-1).
	g := graph.RegularTree(4, 3)
	p := 4
	star := sample.Star(p)
	var want int64
	for v := 0; v < g.NumNodes(); v++ {
		d := g.Degree(graph.Node(v))
		if d >= p-1 {
			want += int64(binom(d, p-1))
		}
	}
	got, _, err := EnumerateBoundedDegree(g, star)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != want {
		t.Errorf("star count %d, want %d", len(got), want)
	}
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}
