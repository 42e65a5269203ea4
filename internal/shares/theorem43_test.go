package shares

import (
	"math"
	"testing"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/sample"
)

func degreesOf(s *sample.Sample) []int {
	d := make([]int, s.P())
	for i := range d {
		d[i] = s.Degree(i)
	}
	return d
}

// TestTheorem43Cycles: every cycle sample matches case (a) — S2 = {X1},
// the only node with purely unidirectional incident edges — and the closed
// form matches the solver's optimal cost (Example 4.3 generalized).
func TestTheorem43Cycles(t *testing.T) {
	for _, p := range []int{4, 5, 6, 8} {
		s := sample.Cycle(p)
		uses := cq.EdgeUses(cq.MergeByOrientation(cq.GenerateForSample(s)))
		k := math.Pow(4, float64(p))
		closed, which := Theorem43Shares(p, degreesOf(s), uses, k)
		if which != Theorem43CaseA {
			t.Fatalf("C%d: matched %v, want case (a)", p, which)
		}
		if math.Abs(ProductOfShares(closed)-k) > 1e-6*k {
			t.Fatalf("C%d: closed-form product %v != k", p, ProductOfShares(closed))
		}
		model := ModelFromEdgeUses(p, uses)
		sol, err := model.Solve(k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := model.CostPerEdge(closed), sol.CostPerEdge; math.Abs(got-want) > 1e-3*want {
			t.Errorf("C%d: closed-form cost %v vs solver %v", p, got, want)
		}
		// S1 shares are exactly twice S2 shares.
		min, max := closed[0], closed[0]
		for _, sh := range closed {
			min = math.Min(min, sh)
			max = math.Max(max, sh)
		}
		if math.Abs(max-2*min) > 1e-9*max {
			t.Errorf("C%d: share ratio %v, want 2", p, max/min)
		}
	}
}

// TestTheorem43SquareCaseA: the square matches case (a) (S2 = {W}) and the
// closed form reproduces Example 4.2's optimal cost 4·sqrt(2k).
func TestTheorem43SquareCaseA(t *testing.T) {
	s := sample.Square()
	uses := cq.EdgeUses(cq.MergeByOrientation(cq.GenerateForSample(s)))
	k := 4096.0
	closed, which := Theorem43Shares(4, degreesOf(s), uses, k)
	if which != Theorem43CaseA || len(closed) != 4 {
		t.Fatalf("square matched %v with shares %v, want case (a) with four shares", which, closed)
	}
	model := ModelFromEdgeUses(4, uses)
	if got, want := model.CostPerEdge(closed), 4*math.Sqrt(2*k); math.Abs(got-want) > 1e-9*want {
		t.Errorf("square closed-form cost %v, want 4*sqrt(2k) = %v", got, want)
	}
	// The closed form is no worse than the solver on the square's
	// variable-oriented model.
	vo := VariableOrientedModel(4, cq.MergeByOrientation(cq.GenerateForSample(s)))
	sol, err := vo.Solve(k)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := vo.CostPerEdge(closed), sol.CostPerEdge; got > want*1.001 {
		t.Errorf("square closed-form cost %v worse than solver %v", got, want)
	}
}

// TestTheorem43C4Witness: the Example 4.5 C4 structure satisfies both
// cases of Theorem 4.3 (the optimum is a flat manifold, so both share
// assignments are optimal); either way the closed form reproduces the
// Eq.(3) cost.
func TestTheorem43C4Witness(t *testing.T) {
	uses := []cq.EdgeUse{
		{I: 0, J: 1, Forward: true, Backward: true},
		{I: 0, J: 3, Forward: true, Backward: true},
		{I: 1, J: 2, Forward: true},
		{I: 2, J: 3, Forward: true},
	}
	k := 4096.0
	closed, which := Theorem43Shares(4, []int{2, 2, 2, 2}, uses, k)
	if which == Theorem43None {
		t.Fatalf("witness matched no case")
	}
	model := ModelFromEdgeUses(4, uses)
	if got, want := model.CostPerEdge(closed), Eq3Cost(k, 4, 2, 1); math.Abs(got-want) > 1e-9*want {
		t.Errorf("%v closed-form cost %v, want Eq.(3) %v", which, got, want)
	}
}

// TestTheorem43CaseBOnly: a C6 structure where case (a) cannot apply
// (every node touches a bidirectional edge, so its S1 would be everything)
// but case (b) does: S1 = {X1, X4} with only bidirectional incident edges,
// each crossing into S2.
func TestTheorem43CaseBOnly(t *testing.T) {
	uses := []cq.EdgeUse{
		{I: 0, J: 1, Forward: true, Backward: true},
		{I: 0, J: 5, Forward: true, Backward: true},
		{I: 2, J: 3, Forward: true, Backward: true},
		{I: 3, J: 4, Forward: true, Backward: true},
		{I: 1, J: 2, Forward: true},
		{I: 4, J: 5, Forward: true},
	}
	k := 1e6
	closed, which := Theorem43Shares(6, []int{2, 2, 2, 2, 2, 2}, uses, k)
	if which != Theorem43CaseB {
		t.Fatalf("matched %v, want case (b)", which)
	}
	if math.Abs(closed[0]-2*closed[1]) > 1e-9*closed[0] || math.Abs(closed[3]-2*closed[2]) > 1e-9*closed[3] {
		t.Errorf("S1 shares should double S2: %v", closed)
	}
	model := ModelFromEdgeUses(6, uses)
	sol, err := model.Solve(k)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := model.CostPerEdge(closed), sol.CostPerEdge; math.Abs(got-want) > 2e-3*want {
		t.Errorf("case (b) closed-form cost %v vs solver optimum %v", got, want)
	}
	sums := model.LagrangeSums(closed)
	for v := 1; v < 6; v++ {
		if math.Abs(sums[v]-sums[0]) > 1e-6*sums[0] {
			t.Errorf("closed form violates Lagrange equality at var %d: %v vs %v", v, sums[v], sums[0])
		}
	}
}

// TestTheorem43NoCase: irregular samples and structures matching neither
// case return Theorem43None.
func TestTheorem43NoCase(t *testing.T) {
	lp := sample.Lollipop() // not regular
	uses := cq.EdgeUses(cq.MergeByOrientation(cq.GenerateForSample(lp)))
	if _, which := Theorem43Shares(4, degreesOf(lp), uses, 100); which != Theorem43None {
		t.Errorf("lollipop matched %v, want none (irregular)", which)
	}
	// All edges bidirectional: S2 would be empty in case (a).
	allBi := []cq.EdgeUse{
		{I: 0, J: 1, Forward: true, Backward: true},
		{I: 1, J: 2, Forward: true, Backward: true},
		{I: 0, J: 2, Forward: true, Backward: true},
	}
	if _, which := Theorem43Shares(3, []int{2, 2, 2}, allBi, 100); which != Theorem43None {
		t.Errorf("all-bidirectional triangle matched %v, want none", which)
	}
}

// TestConvertiblePredicate: Theorem 6.1's condition on the paper's
// algorithm inventory.
func TestConvertiblePredicate(t *testing.T) {
	cases := []struct {
		name        string
		alpha, beta float64
		p           int
		want        bool
	}{
		{"triangles (0, 3/2)", 0, 1.5, 3, true},
		{"C5 via OddCycle (0, 5/2)", 0, 2.5, 5, true},
		{"edges (0, 1)", 0, 1, 2, true},
		{"Theorem 7.2 (q=1, p=5)", 1, 2, 5, true},
		{"hypothetical subquadratic (0, 1) for p=3", 0, 1, 3, false},
		{"linear for p=4", 0, 1.5, 4, false},
	}
	for _, c := range cases {
		if got := Convertible(c.alpha, c.beta, c.p); got != c.want {
			t.Errorf("%s: convertible = %v, want %v", c.name, got, c.want)
		}
	}
}
