package cq

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"subgraphmr/internal/perm"
	"subgraphmr/internal/sample"
)

// OrbitCQs returns the CQ set every strategy evaluates for s: one
// constraint-mode CQ per orbit of s's acyclic orientations under Aut(S).
// Every instance, read through the data graph's node order, orients the
// sample's edges acyclically; its |Aut(S)| matches are the maps whose
// orientations form one orbit, and those with the orbit's representative
// orientation R form one coset of R's stabiliser. The CQ for R therefore
// takes R as its subgoals and adds symmetry-breaking order constraints
// that keep exactly one map of each such coset (Grochow & Kellis, RECOMB
// 2007): repeatedly, the least variable v that the remaining group moves
// is held below the rest of its orbit, and the group shrinks to v's
// stabiliser. Section 5's cycle counts are exactly these orbit counts.
//
// The orientations are walked by backtracking over the edges, so the walk
// costs O(e·|AO(S)|), never p!. Each orbit keeps the member whose least
// linear extension is least, and the CQs are ordered by that extension:
// it is the orientation of the orbit's least node order, which the
// Section 3 pipeline keeps too, so every CQ here has the subgoals of one
// of MergeByOrientation(GenerateForSample(s)).
//
// LessCons holds every implied pair, sorted, and NeqCons the incomparable
// pairs — the form simplifyCondition gives a merged CQ. The sample must
// have at most 16 nodes and 64 edges.
func OrbitCQs(s *sample.Sample) ([]*CQ, error) {
	p, edges := s.P(), s.Edges()
	if p > 16 || len(edges) > 64 {
		return nil, fmt.Errorf("cq: sample has %d nodes and %d edges; orientations are generated for at most 16 and 64", p, len(edges))
	}
	w := newOrienter(s)
	type orbit struct {
		rep  uint64      // the representative orientation
		key  uint64      // its least linear extension
		stab []perm.Perm // its stabiliser in Aut(S)
	}
	var orbits []orbit
	seen := make(map[uint64]struct{})
	w.walk(func(o uint64) {
		if _, ok := seen[o]; ok {
			return
		}
		best := orbit{key: math.MaxUint64}
		var stab []perm.Perm // Stab(o)
		var via perm.Perm    // an automorphism taking o to best.rep
		for _, a := range w.auts {
			img, pred := w.image(a, o)
			if img == o {
				stab = append(stab, a)
			}
			if _, ok := seen[img]; ok {
				continue
			}
			seen[img] = struct{}{}
			if k := w.leastExtension(pred); k < best.key {
				best.rep, best.key, via = img, k, a
			}
		}
		// Stab(via(o)) is via∘Stab(o)∘via⁻¹, which maps via(x) to via(s(x)).
		flat := make(perm.Perm, len(stab)*w.p)
		best.stab = make([]perm.Perm, len(stab))
		for i, s := range stab {
			g := flat[i*w.p:][:w.p]
			for x, sx := range s {
				g[via[x]] = via[sx]
			}
			best.stab[i] = g
		}
		orbits = append(orbits, best)
	})
	slices.SortFunc(orbits, func(a, b orbit) int { return cmp.Compare(a.key, b.key) })
	out := make([]*CQ, len(orbits))
	for i, ob := range orbits {
		out[i] = w.cq(ob.rep, ob.stab)
	}
	return out, nil
}

// orienter holds what the orientation walk and the orbit arithmetic share.
// An orientation is a bit per sample edge: clear orients edge {u, v}
// (u < v) as u → v, meaning u's image precedes v's; set orients it v → u.
type orienter struct {
	s     *sample.Sample
	p     int
	edges [][2]int
	auts  []perm.Perm
	index []int8 // index[u*p+v]: the edge {u, v}, or -1
}

func newOrienter(s *sample.Sample) *orienter {
	p := s.P()
	w := &orienter{s: s, p: p, edges: s.Edges(), auts: s.Automorphisms(), index: make([]int8, p*p)}
	for i := range w.index {
		w.index[i] = -1
	}
	for i, e := range w.edges {
		w.index[e[0]*p+e[1]] = int8(i)
		w.index[e[1]*p+e[0]] = int8(i)
	}
	return w
}

// walk calls visit with every acyclic orientation. An edge is oriented
// u → v only while v does not reach u, so no partial orientation closes a
// directed cycle, and each extends to at least one full orientation.
func (w *orienter) walk(visit func(uint64)) {
	p, e := w.p, len(w.edges)
	// reach[i*p+x]: the nodes x reaches (x included) once the first i
	// edges are oriented.
	reach := make([]uint16, (e+1)*p)
	for x := 0; x < p; x++ {
		reach[x] = 1 << x
	}
	var orient func(i int, o uint64)
	orient = func(i int, o uint64) {
		if i == e {
			visit(o)
			return
		}
		cur, next := reach[i*p:][:p], reach[(i+1)*p:][:p]
		for dir := uint64(0); dir < 2; dir++ {
			u, v := w.edges[i][0], w.edges[i][1]
			if dir == 1 {
				u, v = v, u
			}
			if cur[v]>>u&1 != 0 {
				continue // v reaches u: u → v closes a cycle
			}
			for x, r := range cur {
				if r>>u&1 != 0 {
					r |= cur[v]
				}
				next[x] = r
			}
			orient(i+1, o|dir<<i)
		}
	}
	orient(0, 0)
}

// image maps orientation o through the automorphism a — the edge oriented
// x → y becomes a(x) → a(y) — and returns the image with, per node, the
// nodes the image orients directly into it.
func (w *orienter) image(a perm.Perm, o uint64) (img uint64, pred [16]uint16) {
	for i, e := range w.edges {
		x, y := a[e[0]], a[e[1]]
		if o>>i&1 != 0 {
			x, y = y, x
		}
		pred[y] |= 1 << x
		if x > y { // the image edge is clear when its tail is its lower end
			img |= 1 << w.index[x*w.p+y]
		}
	}
	return img, pred
}

// leastExtension returns the lexicographically least linear extension of
// the orientation with direct predecessors pred — the topological order
// that always takes the least free node — packed four bits a node, first
// node highest, so keys compare as sequences.
func (w *orienter) leastExtension(pred [16]uint16) uint64 {
	var placed uint16
	var key uint64
	for t := 0; t < w.p; t++ {
		free := ^placed & (1<<w.p - 1)
		for ; free != 0; free &= free - 1 {
			v := bits.TrailingZeros16(free)
			if pred[v]&^placed == 0 {
				placed |= 1 << v
				key |= uint64(v) << (60 - 4*t)
				break
			}
		}
	}
	return key
}

// cq builds the constraint-mode CQ of representative orientation o, whose
// stabiliser is group: its subgoals, and the closure of its order with
// the symmetry-breaking constraints of group, which it consumes.
func (w *orienter) cq(o uint64, group []perm.Perm) *CQ {
	p := w.p
	q := &CQ{P: p, Names: w.s.Names(), Subgoals: make([]Subgoal, len(w.edges))}
	// lower[v]: the variables whose images precede v's in every match.
	var lower [16]uint16
	for i, e := range w.edges {
		u, v := e[0], e[1]
		if o>>i&1 != 0 {
			u, v = v, u
		}
		q.Subgoals[i] = Subgoal{u, v}
		lower[v] |= 1 << u
	}
	for len(group) > 1 {
		for v := 0; v < p; v++ {
			var orbit uint16
			for _, a := range group {
				orbit |= 1 << a[v]
			}
			if orbit == 1<<v {
				continue
			}
			for ws := orbit &^ (1 << v); ws != 0; ws &= ws - 1 {
				lower[bits.TrailingZeros16(ws)] |= 1 << v
			}
			group = slices.DeleteFunc(group, func(a perm.Perm) bool { return a[v] != v })
			break
		}
	}
	for k := 0; k < p; k++ {
		for v := 0; v < p; v++ {
			if lower[v]>>k&1 != 0 {
				lower[v] |= lower[k]
			}
		}
	}
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			if lower[b]>>a&1 != 0 {
				q.LessCons = append(q.LessCons, Pair{a, b})
			}
		}
	}
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			if (lower[b]>>a|lower[a]>>b)&1 == 0 {
				q.NeqCons = append(q.NeqCons, Pair{a, b})
			}
		}
	}
	return q
}
