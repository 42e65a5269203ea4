package cq

import (
	"strings"
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
)

// TestNonExactSimplification exercises the footnote-5 case: a merged CQ
// whose OR of conditions is not expressible as a partial order plus
// disequalities. Merging the orderings XYZ and ZXY of a single-edge sample
// yields the intersection order {X<Y}, whose linear extensions also admit
// XZY — so the simplified condition is a strict relaxation, the flag
// records it, and evaluation (which uses the exact order set) stays
// exactly-once.
func TestNonExactSimplification(t *testing.T) {
	s := sample.MustNew(3, [][2]int{{0, 1}}, "X", "Y", "Z")
	q1 := FromOrdering(s, []int{0, 1, 2}) // X<Y<Z
	q2 := FromOrdering(s, []int{2, 0, 1}) // Z<X<Y
	merged := MergeByOrientation([]*CQ{q1, q2})
	if len(merged) != 1 {
		t.Fatalf("merged into %d CQs, want 1", len(merged))
	}
	m := merged[0]
	if m.ExactSimplified {
		t.Error("this OR is not a conjunctive condition; ExactSimplified should be false")
	}
	if !strings.Contains(m.String(), "exact OR of 2 orders") {
		t.Errorf("String should flag the relaxation: %q", m.String())
	}
	// Evaluation remains exact: on the triangle K3 (nodes 0,1,2) the edge
	// instances with a third distinct node, under orders XYZ and ZXY only.
	local := graph.SparseFromEdges(graph.CompleteGraph(3).Edges())
	var got [][]graph.Node
	NewEvaluator(m).Run(local, graph.NaturalLess, func(phi []graph.Node) {
		// phi is the evaluator's scratch buffer: copy to retain.
		got = append(got, append([]graph.Node(nil), phi...))
	})
	// Assignments (X,Y,Z) with edge X-Y present, X<Y, and rank order in
	// {XYZ, ZXY}: XYZ: (0,1,2); ZXY: (1,2,0). (XZY, e.g. (0,2,1), must be
	// excluded even though it satisfies the relaxed condition.)
	if len(got) != 2 {
		t.Fatalf("got %d assignments %v, want 2", len(got), got)
	}
	for _, phi := range got {
		if phi[0] == 0 && phi[1] == 2 && phi[2] == 1 {
			t.Error("relaxed-order assignment XZY leaked through")
		}
	}
}

// TestAcceptsOrderingConstraintMode covers the constraint-mode branch.
func TestAcceptsOrderingConstraintMode(t *testing.T) {
	q := &CQ{
		P:        3,
		Names:    []string{"A", "B", "C"},
		Subgoals: []Subgoal{{0, 1}, {1, 2}},
		LessCons: []Pair{{0, 1}, {1, 2}},
	}
	if !q.AcceptsOrdering([]int{0, 1, 2}) {
		t.Error("A<B<C should be accepted")
	}
	if q.AcceptsOrdering([]int{1, 0, 2}) {
		t.Error("B<A<C violates A<B")
	}
	// Subgoal orientation must also hold.
	q2 := &CQ{P: 3, Names: []string{"A", "B", "C"}, Subgoals: []Subgoal{{2, 0}}}
	if q2.AcceptsOrdering([]int{0, 1, 2}) {
		t.Error("subgoal E(C,A) requires C before A")
	}
}

// TestReducedLessRemovesTransitive covers the transitive-reduction path.
func TestReducedLessRemovesTransitive(t *testing.T) {
	q := &CQ{
		P:        3,
		Names:    []string{"A", "B", "C"},
		LessCons: []Pair{{0, 1}, {1, 2}, {0, 2}}, // A<B, B<C, A<C (redundant)
	}
	red := q.ReducedLess()
	if len(red) != 2 {
		t.Fatalf("reduced to %v, want 2 constraints", red)
	}
	for _, c := range red {
		if c == (Pair{0, 2}) {
			t.Error("transitive constraint A<C should be removed")
		}
	}
}

// TestEvaluatorEmptyLocalGraph: an empty fragment yields nothing.
func TestEvaluatorEmptyLocalGraph(t *testing.T) {
	q := GenerateForSample(sample.Triangle())[0]
	count := 0
	NewEvaluator(q).Run(graph.SparseFromEdges(nil), graph.NaturalLess, func([]graph.Node) { count++ })
	if count != 0 {
		t.Errorf("empty fragment produced %d matches", count)
	}
}
