package cq

import (
	"testing"
	"testing/quick"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
)

// TestQuickExactlyOnceRandomSamples is the central property test of the
// Section 3 pipeline: for random 4-node sample graphs and random data
// graphs, the merged CQ set produces every instance exactly once.
func TestQuickExactlyOnceRandomSamples(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(edgeMask uint8, graphSeed uint16) bool {
		// Random sample on 4 nodes from the 6 possible edges; need >= 1.
		pairs := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
		var edges [][2]int
		for i, pr := range pairs {
			if edgeMask&(1<<i) != 0 {
				edges = append(edges, pr)
			}
		}
		if len(edges) == 0 {
			edges = append(edges, pairs[int(graphSeed)%6])
		}
		s, err := sample.New(4, edges)
		if err != nil {
			return false
		}
		if !s.IsConnected() {
			// The evaluator binds unconnected variables to nodes of the
			// local edge set only, so zero-degree data nodes are invisible;
			// the map-reduce layer rejects disconnected samples for the
			// same reason. Skip them here.
			return true
		}
		g := graph.Gnm(10, 18, int64(graphSeed))
		local := graph.SparseFromEdges(g.Edges())

		seen := map[string]bool{}
		count := 0
		dup := false
		NewEvaluatorSet(MergeByOrientation(GenerateForSample(s))).EvaluateAll(local, graph.NaturalLess,
			func(phi []graph.Node) {
				count++
				k := s.Key(phi)
				if seen[k] {
					dup = true
				}
				seen[k] = true
			})
		want := len(serial.BruteForce(g, s))
		return !dup && count == want
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestQuickOrderingInvariance: the CQ machinery is exactly-once under any
// total node order (the hash order of Section 2.3 in particular). The order
// reaches EvaluateAll as a comparator, so its ranking sorts.
func TestQuickOrderingInvariance(t *testing.T) {
	s := sample.Lollipop()
	set := NewEvaluatorSet(MergeByOrientation(GenerateForSample(s)))
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(seed uint16, b uint8) bool {
		g := graph.Gnm(10, 20, int64(seed))
		local := graph.SparseFromEdges(g.Edges())
		h := graph.NodeHash{Seed: uint64(seed), B: int(b%6) + 2}
		less := func(u, v graph.Node) bool { return h.Key(u) < h.Key(v) }
		count := 0
		seen := map[string]bool{}
		dup := false
		set.EvaluateAll(local, less, func(phi []graph.Node) {
			count++
			k := s.Key(phi)
			if seen[k] {
				dup = true
			}
			seen[k] = true
		})
		return !dup && count == len(serial.BruteForce(g, s))
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestQuickCosetCount: the number of generated CQs equals p!/|Aut(S)| for
// random samples (Theorem 3.1's quotient structure).
func TestQuickCosetCount(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	err := quick.Check(func(edgeMask uint8) bool {
		pairs := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
		var edges [][2]int
		for i, pr := range pairs {
			if edgeMask&(1<<i) != 0 {
				edges = append(edges, pr)
			}
		}
		if len(edges) == 0 {
			return true
		}
		s, err := sample.New(4, edges)
		if err != nil {
			return false
		}
		return len(GenerateForSample(s)) == 24/len(s.Automorphisms())
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
