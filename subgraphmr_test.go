package subgraphmr

import (
	"bytes"
	"testing"
)

// TestFacadeQuickstart exercises the README quickstart path end to end.
func TestFacadeQuickstart(t *testing.T) {
	g := Gnm(30, 120, 1)
	res := planRun(t, g, Triangle())
	if got, want := int64(len(res.Instances)), CountTriangles(g); got != want {
		t.Fatalf("facade triangles = %d, serial = %d", got, want)
	}
	if res.TotalComm() == 0 {
		t.Error("communication not metered")
	}
}

func TestFacadeSampleCatalog(t *testing.T) {
	if Triangle().P() != 3 || Square().P() != 4 || Lollipop().P() != 4 {
		t.Error("catalog arity wrong")
	}
	if CycleSample(6).NumEdges() != 6 || CliqueSample(5).NumEdges() != 10 {
		t.Error("catalog sizes wrong")
	}
	if NamedSample("lollipop") == nil || NamedSample("zzz") != nil {
		t.Error("NamedSample lookup broken")
	}
	s, err := NewSample(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, "A", "B", "C")
	if err != nil || s.Name(0) != "A" {
		t.Error("NewSample broken")
	}
}

func TestFacadeCQAndShares(t *testing.T) {
	merged := MergedCQsFor(Lollipop())
	if len(merged) != 6 {
		t.Fatalf("lollipop merged CQs = %d, want 6", len(merged))
	}
	model := VariableOrientedModel(4, merged)
	sol, err := OptimizeShares(model, 750)
	if err != nil {
		t.Fatal(err)
	}
	if sol.CostPerEdge <= 0 {
		t.Error("share optimization returned nonpositive cost")
	}
	if got := len(CycleCQs(5)); got != 3 {
		t.Errorf("pentagon cycle CQs = %d, want 3", got)
	}
}

func TestFacadeSerialAlgorithms(t *testing.T) {
	g := Gnm(15, 40, 2)
	count := 0
	OddCycles(g, 2, func([]Node) { count++ })
	oracle := len(BruteForce(g, CycleSample(5)))
	if count != oracle {
		t.Errorf("OddCycles found %d pentagons, oracle %d", count, oracle)
	}
	dec, _, err := EnumerateByDecomposition(g, Square(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bd, _, err := EnumerateBoundedDegree(g, Square())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(bd) {
		t.Errorf("decomposition %d vs bounded-degree %d squares", len(dec), len(bd))
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := GridGraph(3, 3)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil || g2.NumEdges() != g.NumEdges() {
		t.Errorf("IO round trip failed: %v", err)
	}
	tr := RegularTree(3, 2)
	if tr.NumEdges() != tr.NumNodes()-1 {
		t.Error("RegularTree not a tree")
	}
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1)
	if b.Graph().NumEdges() != 1 {
		t.Error("builder facade broken")
	}
}

func TestFacadeTheorem43AndConvertible(t *testing.T) {
	sh, ok := Theorem43Shares(Square(), 4096)
	if !ok || len(sh) != 4 {
		t.Fatalf("square should match Theorem 4.3: ok=%v shares=%v", ok, sh)
	}
	model := VariableOrientedModel(4, MergedCQsFor(Square()))
	sol, err := OptimizeShares(model, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := model.CostPerEdge(sh), sol.CostPerEdge; got > want*1.001 {
		t.Errorf("Theorem 4.3 closed form cost %v worse than solver %v", got, want)
	}
	if _, ok := Theorem43Shares(Lollipop(), 100); ok {
		t.Error("lollipop is irregular; Theorem 4.3 should not apply")
	}
	if !Convertible(0, 1.5, 3) || Convertible(0, 1, 3) {
		t.Error("Convertible predicate wrong")
	}
}

func TestFacadeBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(300, 3, 2, 5)
	if g.NumEdges() != 3+(300-3)*2 {
		t.Errorf("BA edges = %d", g.NumEdges())
	}
	res := planRun(t, g, Triangle(), WithStrategy(StrategyBucketOriented), WithBuckets(4))
	if int64(len(res.Instances)) != CountTriangles(g) {
		t.Error("BA graph enumeration mismatch")
	}
}
