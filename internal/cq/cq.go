// Package cq implements the conjunctive-query machinery of Section 3 of the
// paper: sample graphs are compiled into a union of conjunctive queries (CQs)
// with arithmetic comparisons that together produce every instance of the
// sample graph exactly once.
//
// The pipeline is:
//
//  1. Enumerate the p! orderings of the sample nodes and quotient them by
//     the automorphism group Aut(S) (Theorem 3.1), keeping one CQ per coset
//     (the lexicographically least ordering is the representative).
//  2. Merge CQs whose relational subgoals have identical edge orientations,
//     OR-ing their arithmetic conditions (Section 3.3).
//
// A CQ's condition is represented exactly — as the set of node orderings it
// accepts — plus a simplified display form (a partial order and a set of
// disequalities), which per the paper's footnote 5 may or may not capture
// the OR exactly; the ExactSimplified flag records whether it does.
package cq

import (
	"fmt"
	"sort"
	"strings"

	"subgraphmr/internal/perm"
	"subgraphmr/internal/sample"
)

// Subgoal is a relational subgoal E(Lo, Hi): the sample edge {Lo, Hi} must
// map to a data edge whose Lo-image precedes its Hi-image in the chosen
// node order.
type Subgoal struct {
	Lo, Hi int
}

// Pair is an ordered pair of variables used in arithmetic constraints
// (A < B for LessCons, A ≠ B for NeqCons).
type Pair struct {
	A, B int
}

// CQ is one conjunctive query for a sample graph. The arithmetic condition
// is carried in one of two modes:
//
//   - Ordering mode (Orderings non-nil): the condition is "the images of the
//     variables appear in one of these total orders". This is the exact OR
//     of conditions from Section 3.3.
//   - Constraint mode (Orderings nil): the condition is exactly the
//     conjunction of LessCons (and injectivity); Section 5's cycle CQs use
//     this mode.
//
// In both modes LessCons is sound (implied by the condition) and is used
// for search-space pruning; NeqCons lists displayed disequalities.
type CQ struct {
	// P is the number of variables.
	P int
	// Names holds display names per variable.
	Names []string
	// Subgoals lists one oriented relational subgoal per sample edge.
	Subgoals []Subgoal
	// Orderings, when non-nil, lists every accepted total order as a slice
	// of variables from least to greatest.
	Orderings [][]int
	// LessCons are A < B constraints (the full intersection partial order
	// in ordering mode; the exact condition in constraint mode).
	LessCons []Pair
	// NeqCons are displayed A ≠ B constraints (incomparable pairs).
	NeqCons []Pair
	// ExactSimplified reports whether LessCons+NeqCons+subgoal orientations
	// capture Orderings exactly (meaningful in ordering mode only).
	ExactSimplified bool

	orderSet map[string]struct{}
}

// FromOrdering builds the CQ for one total order of the sample's nodes.
// order lists variables from least to greatest (the paper's
// X_{order[0]} < X_{order[1]} < …).
func FromOrdering(s *sample.Sample, order []int) *CQ {
	p := s.P()
	rank := make([]int, p)
	for r, v := range order {
		rank[v] = r
	}
	q := &CQ{P: p, Names: s.Names(), ExactSimplified: true}
	for _, e := range s.Edges() {
		i, j := e[0], e[1]
		if rank[i] < rank[j] {
			q.Subgoals = append(q.Subgoals, Subgoal{i, j})
		} else {
			q.Subgoals = append(q.Subgoals, Subgoal{j, i})
		}
	}
	for t := 0; t+1 < p; t++ {
		q.LessCons = append(q.LessCons, Pair{order[t], order[t+1]})
	}
	q.Orderings = [][]int{append([]int(nil), order...)}
	q.buildOrderSet()
	return q
}

// GenerateForSample returns one CQ per coset of Sym(p)/Aut(S) per
// Theorem 3.1: together the CQs produce every instance of the sample graph
// exactly once. The representative of each coset is its lexicographically
// least ordering.
func GenerateForSample(s *sample.Sample) []*CQ {
	p := s.P()
	auts := s.Automorphisms()
	seen := make(map[string]struct{})
	var out []*CQ
	perm.ForEach(p, func(ordering perm.Perm) bool {
		key := orderKey(ordering)
		if _, dup := seen[key]; dup {
			return true
		}
		// New coset: this ordering is the representative (lexicographic
		// iteration guarantees minimality). Mark the whole orbit seen.
		for _, a := range auts {
			seen[orderKey(a.ApplyToList(ordering))] = struct{}{}
		}
		out = append(out, FromOrdering(s, ordering))
		return true
	})
	return out
}

// MergeByOrientation combines CQs whose subgoals have identical edge
// orientations by taking the OR of their conditions (Section 3.3). The
// result preserves the exactly-once guarantee of the input set.
func MergeByOrientation(cqs []*CQ) []*CQ {
	type group struct {
		first *CQ
		ords  [][]int
	}
	var keys []string
	groups := make(map[string]*group)
	for _, q := range cqs {
		if q.Orderings == nil {
			panic("cq: MergeByOrientation requires ordering-mode CQs")
		}
		k := subgoalKey(q.Subgoals)
		g, ok := groups[k]
		if !ok {
			g = &group{first: q}
			groups[k] = g
			keys = append(keys, k)
		}
		g.ords = append(g.ords, q.Orderings...)
	}
	var out []*CQ
	for _, k := range keys {
		g := groups[k]
		merged := &CQ{
			P:         g.first.P,
			Names:     g.first.Names,
			Subgoals:  g.first.Subgoals,
			Orderings: g.ords,
		}
		merged.simplifyCondition()
		merged.buildOrderSet()
		out = append(out, merged)
	}
	return out
}

// OrientationGroups returns, for each orientation class in the merge of
// cqs, the (1-based) indices of the input CQs in that class — reproducing
// Fig. 6 of the paper.
func OrientationGroups(cqs []*CQ) [][]int {
	var keys []string
	groups := make(map[string][]int)
	for i, q := range cqs {
		k := subgoalKey(q.Subgoals)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i+1)
	}
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, groups[k])
	}
	return out
}

// simplifyCondition computes the displayed condition of a merged CQ: the
// intersection partial order of all accepted orderings (transitively
// reduced) plus disequalities for incomparable pairs, and records whether
// that simplified condition is exact.
func (q *CQ) simplifyCondition() {
	p := q.P
	// before[a][b] = true if a precedes b in every accepted ordering.
	before := make([][]bool, p)
	for a := range before {
		before[a] = make([]bool, p)
		for b := range before[a] {
			before[a][b] = a != b
		}
	}
	pos := make([]int, p)
	for _, ord := range q.Orderings {
		for r, v := range ord {
			pos[v] = r
		}
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				if a != b && pos[a] >= pos[b] {
					before[a][b] = false
				}
			}
		}
	}
	// Transitive reduction for display; keep the full partial order for
	// pruning correctness.
	q.LessCons = nil
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			if before[a][b] {
				q.LessCons = append(q.LessCons, Pair{a, b})
			}
		}
	}
	q.NeqCons = nil
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			if !before[a][b] && !before[b][a] {
				q.NeqCons = append(q.NeqCons, Pair{a, b})
			}
		}
	}
	// Exactness: the simplified condition (partial order + distinctness +
	// subgoal orientations) accepts exactly the orderings that are linear
	// extensions of `before` respecting every subgoal's orientation. The
	// simplification is exact iff that set equals Orderings.
	accepted := make(map[string]struct{}, len(q.Orderings))
	for _, ord := range q.Orderings {
		accepted[orderKey(ord)] = struct{}{}
	}
	exact := true
	perm.ForEach(p, func(ord perm.Perm) bool {
		for r, v := range ord {
			pos[v] = r
		}
		ok := true
		for a := 0; a < p && ok; a++ {
			for b := 0; b < p && ok; b++ {
				if before[a][b] && pos[a] >= pos[b] {
					ok = false
				}
			}
		}
		for _, sg := range q.Subgoals {
			if !ok {
				break
			}
			if pos[sg.Lo] >= pos[sg.Hi] {
				ok = false
			}
		}
		if ok {
			if _, in := accepted[orderKey(ord)]; !in {
				exact = false
				return false
			}
		}
		return true
	})
	q.ExactSimplified = exact
}

// ReducedLess returns the transitive reduction of LessCons, the minimal set
// of < constraints to display.
func (q *CQ) ReducedLess() []Pair {
	p := q.P
	full := make([][]bool, p)
	for a := range full {
		full[a] = make([]bool, p)
	}
	for _, c := range q.LessCons {
		full[c.A][c.B] = true
	}
	// Transitive closure (tiny p; cubic is fine).
	for k := 0; k < p; k++ {
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				if full[a][k] && full[k][b] {
					full[a][b] = true
				}
			}
		}
	}
	var out []Pair
	for _, c := range q.LessCons {
		redundant := false
		for k := 0; k < p && !redundant; k++ {
			if k != c.A && k != c.B && full[c.A][k] && full[k][c.B] {
				redundant = true
			}
		}
		if !redundant {
			out = append(out, c)
		}
	}
	return out
}

// AcceptsOrdering reports whether the CQ condition accepts the given total
// order of variables (least to greatest).
func (q *CQ) AcceptsOrdering(order []int) bool {
	if q.Orderings != nil {
		_, ok := q.orderSet[orderKey(order)]
		return ok
	}
	pos := make([]int, q.P)
	for r, v := range order {
		pos[v] = r
	}
	for _, c := range q.LessCons {
		if pos[c.A] >= pos[c.B] {
			return false
		}
	}
	for _, sg := range q.Subgoals {
		if pos[sg.Lo] >= pos[sg.Hi] {
			return false
		}
	}
	return true
}

func (q *CQ) buildOrderSet() {
	q.orderSet = make(map[string]struct{}, len(q.Orderings))
	for _, ord := range q.Orderings {
		q.orderSet[orderKey(ord)] = struct{}{}
	}
}

// String renders the CQ in the paper's style, e.g.
// "E(W,X) & E(X,Y) & E(X,Z) & E(Y,Z) & W<X & X<Y & Y<Z".
func (q *CQ) String() string {
	var sb strings.Builder
	part := func(pre string, a int, op string, b int, post string) {
		if sb.Len() > 0 {
			sb.WriteString(" & ")
		}
		sb.WriteString(pre)
		sb.WriteString(q.Names[a])
		sb.WriteString(op)
		sb.WriteString(q.Names[b])
		sb.WriteString(post)
	}
	for _, sg := range q.Subgoals {
		part("E(", sg.Lo, ",", sg.Hi, ")")
	}
	for _, c := range q.ReducedLess() {
		part("", c.A, "<", c.B, "")
	}
	for _, c := range q.NeqCons {
		part("", c.A, "!=", c.B, "")
	}
	if q.Orderings != nil && !q.ExactSimplified {
		fmt.Fprintf(&sb, " [exact OR of %d orders]", len(q.Orderings))
	}
	return sb.String()
}

func orderKey(order []int) string {
	b := make([]byte, len(order))
	for i, v := range order {
		b[i] = byte(v)
	}
	return string(b)
}

func subgoalKey(sgs []Subgoal) string {
	cp := append([]Subgoal(nil), sgs...)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Lo != cp[j].Lo {
			return cp[i].Lo < cp[j].Lo
		}
		return cp[i].Hi < cp[j].Hi
	})
	var b strings.Builder
	for _, sg := range cp {
		fmt.Fprintf(&b, "%d>%d;", sg.Lo, sg.Hi)
	}
	return b.String()
}
