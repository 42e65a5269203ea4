package cq

import (
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
)

// TestEvaluatorSetMatchesPerCQRuns: the compiled set produces exactly the
// per-CQ evaluation results (same assignments, same total work), and the
// shared scratch never leaks duplicates across CQs.
func TestEvaluatorSetMatchesPerCQRuns(t *testing.T) {
	for _, s := range []*sample.Sample{sample.Triangle(), sample.Square(), sample.Lollipop()} {
		g := graph.Gnm(14, 40, 11)
		local := graph.SparseFromEdges(g.Edges())
		cqs := MergeByOrientation(GenerateForSample(s))

		wantSeen := map[string]int{}
		var wantWork int64
		for _, q := range cqs {
			wantWork += NewEvaluatorSet([]*CQ{q}).EvaluateAll(local, graph.NaturalLess, func(phi []graph.Node) {
				wantSeen[s.Key(phi)]++
			})
		}

		gotSeen := map[string]int{}
		set := NewEvaluatorSet(cqs)
		if set.Len() != len(cqs) {
			t.Fatalf("%v: set has %d evaluators, want %d", s, set.Len(), len(cqs))
		}
		gotWork := set.EvaluateAll(local, graph.NaturalLess, func(phi []graph.Node) {
			gotSeen[s.Key(phi)]++
		})

		if gotWork != wantWork {
			t.Errorf("%v: set work %d, per-CQ work %d", s, gotWork, wantWork)
		}
		if len(gotSeen) != len(wantSeen) {
			t.Fatalf("%v: set found %d distinct instances, per-CQ %d", s, len(gotSeen), len(wantSeen))
		}
		for k, n := range wantSeen {
			if gotSeen[k] != n {
				t.Fatalf("%v: instance %s seen %d times by set, %d per-CQ", s, k, gotSeen[k], n)
			}
		}
	}
}

// TestEvaluatorRunScratchContract: the phi handed to emit is a reused
// scratch buffer — retaining it without copying observes later bindings.
// This pins the documented copy-on-retain contract that lets reducers skip
// copying the matches they filter out.
func TestEvaluatorRunScratchContract(t *testing.T) {
	g := graph.CompleteGraph(5)
	local := graph.SparseFromEdges(g.Edges())
	q := MergeByOrientation(GenerateForSample(sample.Triangle()))[0]
	var retained, copied []graph.Node
	count := 0
	NewEvaluatorSet([]*CQ{q}).EvaluateAll(local, graph.NaturalLess, func(phi []graph.Node) {
		if count == 0 {
			retained = phi // deliberately retained without copying
			copied = append([]graph.Node(nil), phi...)
		}
		count++
	})
	if count < 2 {
		t.Fatalf("expected many triangle matches, got %d", count)
	}
	// retained aliases the scratch, which the backtracking kept mutating
	// after the first match — so it no longer holds that match.
	same := true
	for i := range retained {
		if retained[i] != copied[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("retained scratch %v unexpectedly still equals the first match %v — did EvaluateAll start copying per emit?", retained, copied)
	}
}
