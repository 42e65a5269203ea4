package serial

import (
	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
)

// EnumerateByDecomposition enumerates every instance of s in g exactly once
// using the decomposition algorithm of Lemma 6.1 / Theorem 7.2: instances
// of each part (isolated nodes, edges, odd-Hamiltonian subgraphs) are
// enumerated independently, combined by checking disjointness and the
// sample edges crossing between parts, and deduplicated by keeping the
// canonical (lexicographically least) assignment per Aut(S)-orbit. With q
// isolated nodes this is a (q, (p-q)/2)-algorithm; the parts are
// s.Decompose()'s, which minimize q.
// Returns the canonical assignments and the work performed.
func EnumerateByDecomposition(g *graph.Graph, s *sample.Sample) ([][]graph.Node, int64) {
	parts, _ := s.Decompose()
	var work int64
	// Enumerate the assignments of each part (Lemma 6.1 enumerates the two
	// pieces fully before combining; we do the same, part by part).
	partAssignments := make([][][]graph.Node, len(parts))
	for pi, part := range parts {
		var asg [][]graph.Node
		switch part.Kind {
		case sample.IsolatedNode:
			for u := 0; u < g.NumNodes(); u++ {
				asg = append(asg, []graph.Node{graph.Node(u)})
			}
			work += int64(g.NumNodes())
		case sample.EdgePair:
			for _, e := range g.Edges() {
				asg = append(asg, []graph.Node{e.U, e.V})
				asg = append(asg, []graph.Node{e.V, e.U})
			}
			work += int64(2 * g.NumEdges())
		case sample.OddHamiltonian:
			work += oddHamAssignments(g, s, part, &asg)
		}
		partAssignments[pi] = asg
	}

	// Cross-part sample edges to check when part pi is placed.
	crossEdges := make([][][2]int, len(parts))
	placedAt := make([]int, s.P())
	for pi, part := range parts {
		for _, v := range part.Vars {
			placedAt[v] = pi
		}
	}
	for _, e := range s.Edges() {
		a, b := e[0], e[1]
		if placedAt[a] != placedAt[b] {
			later := placedAt[a]
			if placedAt[b] > later {
				later = placedAt[b]
			}
			crossEdges[later] = append(crossEdges[later], [2]int{a, b})
		}
	}

	phi := make([]graph.Node, s.P())
	bound := make([]bool, s.P())
	var out [][]graph.Node
	var combine func(pi int)
	combine = func(pi int) {
		if pi == len(parts) {
			if s.IsCanonical(phi) {
				out = append(out, append([]graph.Node(nil), phi...))
			}
			return
		}
		part := parts[pi]
	next:
		for _, asg := range partAssignments[pi] {
			work++
			// Disjointness against earlier parts.
			for _, u := range asg {
				for v := 0; v < s.P(); v++ {
					if bound[v] && phi[v] == u {
						continue next
					}
				}
			}
			for i, v := range part.Vars {
				phi[v] = asg[i]
				bound[v] = true
			}
			ok := true
			for _, e := range crossEdges[pi] {
				if !g.HasEdge(phi[e[0]], phi[e[1]]) {
					ok = false
					break
				}
			}
			if ok {
				combine(pi + 1)
			}
			for _, v := range part.Vars {
				bound[v] = false
			}
		}
	}
	combine(0)
	sortAssignments(out)
	return out, work
}

// oddHamAssignments enumerates the assignments of an odd-Hamiltonian part:
// every odd cycle of matching length found by Algorithm 1 (or the O(m^{3/2})
// triangle algorithm for length 3), mapped onto the part's Hamilton cycle in
// all 2L rotations/reflections, keeping those where the part's chord edges
// (sample edges inside the part but off the Hamilton cycle) are present.
func oddHamAssignments(g *graph.Graph, s *sample.Sample, part sample.Part, asg *[][]graph.Node) int64 {
	length := len(part.Vars)
	var chords [][2]int // indexes into part.Vars
	for i := 0; i < length; i++ {
		for j := i + 1; j < length; j++ {
			vi, vj := part.Vars[i], part.Vars[j]
			onCycle := j == i+1 || (i == 0 && j == length-1)
			if s.HasEdge(vi, vj) && !onCycle {
				chords = append(chords, [2]int{i, j})
			}
		}
	}
	var work int64
	addCycle := func(cycle []graph.Node) {
		// All rotations and both directions of mapping the Hamilton order
		// onto the found cycle.
		for rot := 0; rot < length; rot++ {
			for dir := -1; dir <= 1; dir += 2 {
				work++
				m := make([]graph.Node, length)
				for i := 0; i < length; i++ {
					m[i] = cycle[((rot+dir*i)%length+length)%length]
				}
				ok := true
				for _, ch := range chords {
					if !g.HasEdge(m[ch[0]], m[ch[1]]) {
						ok = false
						break
					}
				}
				if ok {
					*asg = append(*asg, m)
				}
			}
		}
	}
	if length == 3 {
		work += Triangles(g, func(a, b, c graph.Node) { addCycle([]graph.Node{a, b, c}) })
	} else {
		work += OddCycles(g, (length-1)/2, addCycle)
	}
	return work
}
