package cq

import (
	"testing"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
)

// TestWorkspaceAcrossArities: a workspace put back on the free list and
// taken again between evaluations of samples of different arity gives each
// evaluation the matches and work a fresh workspace gives, and once it has
// seen the largest arity and fragment it evaluates a smaller arity and the
// larger one again without allocating.
func TestWorkspaceAcrossArities(t *testing.T) {
	edges := graph.Gnm(40, 200, 3).Edges()
	var matches int64
	count := func([]int32) { matches++ }
	run := func(ws *Workspace, set *EvaluatorSet) (int64, int64) {
		matches = 0
		ws.Frag.Build(edges, graph.NaturalKey)
		work := set.Eval(&ws.Frag, &ws.Scratch, count)
		return matches, work
	}
	var sets []*EvaluatorSet
	for _, s := range []*sample.Sample{sample.Lollipop(), sample.Triangle(), sample.Square(), sample.Triangle()} {
		sets = append(sets, NewEvaluatorSet(MergeByOrientation(GenerateForSample(s))))
	}
	for i, set := range sets {
		var fresh Workspace
		wantMatches, wantWork := run(&fresh, set)
		ws := TakeWorkspace()
		gotMatches, gotWork := run(&ws, set)
		PutWorkspace(&ws)
		if gotMatches != wantMatches || gotWork != wantWork {
			t.Errorf("evaluation %d: %d matches, work %d on a recycled workspace; %d, %d on a fresh one",
				i, gotMatches, gotWork, wantMatches, wantWork)
		}
	}

	var ws Workspace
	run(&ws, sets[0])
	if allocs := testing.AllocsPerRun(10, func() {
		run(&ws, sets[1])
		run(&ws, sets[0])
	}); allocs != 0 {
		t.Errorf("a warmed workspace allocates %v times evaluating p = 3 then p = 4", allocs)
	}
}
