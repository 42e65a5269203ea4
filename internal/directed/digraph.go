// Package directed extends the enumeration framework to directed,
// edge-labeled graphs — the first extension the paper's conclusions call
// out: "we can still express the instances of a labeled, directed sample
// graph as a union of CQ's. The automorphism groups tend to be smaller, so
// the number of CQ's is greater, but the same methods for evaluating CQ's
// by a multiway join will work."
//
// A labeled directed graph is a collection of relations D_l(X, Y), one per
// label l, each containing the l-labeled arcs (Section 1.1's "buys from" /
// "knows" relations). Instances of a directed sample pattern are
// enumerated with the same bucket-oriented single-round scheme: arcs are
// shipped by bucket multiset, each reducer searches its fragment, and an
// instance is owned by the single reducer matching its node buckets, with
// automorphism-canonical filtering providing the exactly-once guarantee.
package directed

import (
	"fmt"
	"sort"
	"sync"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/perm"
	"subgraphmr/internal/sample"
)

// Label identifies an arc label (relation name).
type Label uint16

// Arc is a directed labeled edge From → To.
type Arc struct {
	From, To graph.Node
	Label    Label
}

// DiGraph is an immutable directed, edge-labeled data graph. Parallel arcs
// with distinct labels are allowed; duplicate (from, to, label) triples are
// not.
type DiGraph struct {
	n    int
	set  map[Arc]struct{}
	arcs []Arc
}

// DiBuilder accumulates arcs for a DiGraph.
type DiBuilder struct {
	n   int
	set map[Arc]struct{}
}

// NewDiBuilder returns a builder for a directed graph with n nodes.
func NewDiBuilder(n int) *DiBuilder {
	return &DiBuilder{n: n, set: make(map[Arc]struct{})}
}

// AddArc records the arc from → to with the given label; self-loops and
// exact duplicates are ignored. Reports whether the arc was new.
func (b *DiBuilder) AddArc(from, to graph.Node, label Label) bool {
	if from < 0 || to < 0 || int(from) >= b.n || int(to) >= b.n {
		panic(fmt.Sprintf("directed: arc (%d,%d) out of range [0,%d)", from, to, b.n))
	}
	if from == to {
		return false
	}
	a := Arc{from, to, label}
	if _, dup := b.set[a]; dup {
		return false
	}
	b.set[a] = struct{}{}
	return true
}

// NumArcs returns the number of distinct arcs so far.
func (b *DiBuilder) NumArcs() int { return len(b.set) }

// Graph freezes the builder.
func (b *DiBuilder) Graph() *DiGraph {
	g := &DiGraph{n: b.n, set: b.set}
	for a := range b.set {
		g.arcs = append(g.arcs, a)
	}
	sort.Slice(g.arcs, func(i, j int) bool {
		x, y := g.arcs[i], g.arcs[j]
		if x.From != y.From {
			return x.From < y.From
		}
		if x.To != y.To {
			return x.To < y.To
		}
		return x.Label < y.Label
	})
	return g
}

// NumNodes returns the node count.
func (g *DiGraph) NumNodes() int { return g.n }

// NumArcs returns the arc count (the sum of all relation sizes).
func (g *DiGraph) NumArcs() int { return len(g.arcs) }

// Arcs returns all arcs sorted by (from, to, label); shared, do not modify.
func (g *DiGraph) Arcs() []Arc { return g.arcs }

// HasArc reports whether from → to with the label is present.
func (g *DiGraph) HasArc(from, to graph.Node, label Label) bool {
	_, ok := g.set[Arc{from, to, label}]
	return ok
}

// DiPattern is a directed, labeled sample graph on p nodes.
type DiPattern struct {
	p     int
	arcs  []PatternArc
	names []string

	autOnce sync.Once
	auts    []perm.Perm // cached automorphism group, computed under autOnce
}

// PatternArc is a directed labeled edge of a pattern.
type PatternArc struct {
	From, To int
	Label    Label
}

// NewPattern builds a directed labeled pattern.
func NewPattern(p int, arcs []PatternArc, names ...string) (*DiPattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("directed: pattern needs at least one node")
	}
	if len(names) != 0 && len(names) != p {
		return nil, fmt.Errorf("directed: got %d names for %d nodes", len(names), p)
	}
	seen := make(map[PatternArc]bool)
	pt := &DiPattern{p: p}
	for _, a := range arcs {
		if a.From == a.To || a.From < 0 || a.To < 0 || a.From >= p || a.To >= p {
			return nil, fmt.Errorf("directed: bad pattern arc %+v", a)
		}
		if !seen[a] {
			seen[a] = true
			pt.arcs = append(pt.arcs, a)
		}
	}
	if len(pt.arcs) == 0 {
		return nil, fmt.Errorf("directed: pattern needs at least one arc")
	}
	if len(names) == p {
		pt.names = append([]string(nil), names...)
	} else {
		pt.names = make([]string, p)
		for i := range pt.names {
			pt.names[i] = fmt.Sprintf("X%d", i+1)
		}
	}
	return pt, nil
}

// MustPattern is NewPattern that panics on error.
func MustPattern(p int, arcs []PatternArc, names ...string) *DiPattern {
	pt, err := NewPattern(p, arcs, names...)
	if err != nil {
		panic(err)
	}
	return pt
}

// P returns the number of pattern nodes.
func (pt *DiPattern) P() int { return pt.p }

// Arcs returns the pattern arcs.
func (pt *DiPattern) Arcs() []PatternArc { return pt.arcs }

// Name returns the display name of node i.
func (pt *DiPattern) Name(i int) string { return pt.names[i] }

// HasArc reports whether the pattern has the given labeled arc.
func (pt *DiPattern) HasArc(from, to int, label Label) bool {
	for _, a := range pt.arcs {
		if a.From == from && a.To == to && a.Label == label {
			return true
		}
	}
	return false
}

// IsWeaklyConnected reports whether the pattern is connected ignoring
// directions (required by the map-reduce scheme, as for undirected
// samples).
func (pt *DiPattern) IsWeaklyConnected() bool { return pt.skeleton().IsConnected() }

// skeleton returns the pattern's undirected skeleton: an edge wherever
// some arc joins two nodes, whatever its direction and label.
func (pt *DiPattern) skeleton() *sample.Sample {
	edges := make([][2]int, len(pt.arcs))
	for i, a := range pt.arcs {
		edges[i] = [2]int{a.From, a.To}
	}
	return sample.MustNew(pt.p, edges)
}

// Automorphisms returns the label- and direction-preserving automorphism
// group of the pattern, computed once and cached. Safe for concurrent use
// — reducers of a parallel enumeration call it on a shared pattern. The
// group is the subgroup of the skeleton's automorphisms (found by the
// backtracking search samples use) that sends every arc to an arc with the
// same direction and label. As the paper notes, these groups are typically
// smaller than in the undirected unlabeled case.
func (pt *DiPattern) Automorphisms() []perm.Perm {
	pt.autOnce.Do(func() {
		arcSet := make(map[PatternArc]bool, len(pt.arcs))
		for _, a := range pt.arcs {
			arcSet[a] = true
		}
	next:
		for _, pm := range pt.skeleton().Automorphisms() {
			for _, a := range pt.arcs {
				if !arcSet[PatternArc{pm[a.From], pm[a.To], a.Label}] {
					continue next
				}
			}
			pt.auts = append(pt.auts, pm)
		}
	})
	return pt.auts
}

// IsInstance reports whether phi is an injective mapping sending every
// pattern arc to an arc of g (non-induced semantics).
func (pt *DiPattern) IsInstance(g *DiGraph, phi []graph.Node) bool {
	if len(phi) != pt.p {
		return false
	}
	for i := 0; i < pt.p; i++ {
		for j := i + 1; j < pt.p; j++ {
			if phi[i] == phi[j] {
				return false
			}
		}
	}
	for _, a := range pt.arcs {
		if !g.HasArc(phi[a.From], phi[a.To], a.Label) {
			return false
		}
	}
	return true
}

// IsCanonical reports whether phi is the lexicographically least member of
// its orbit under the pattern's automorphism group — the unique witness of
// its instance.
func (pt *DiPattern) IsCanonical(phi []graph.Node) bool {
	tmp := make([]graph.Node, pt.p)
	for _, a := range pt.Automorphisms() {
		for i := 0; i < pt.p; i++ {
			tmp[i] = phi[a[i]]
		}
		for i := 0; i < pt.p; i++ {
			if tmp[i] != phi[i] {
				if tmp[i] < phi[i] {
					return false
				}
				break
			}
		}
	}
	return true
}

// Key returns a canonical string identifying phi's instance.
func (pt *DiPattern) Key(phi []graph.Node) string {
	best := append([]graph.Node(nil), phi...)
	tmp := make([]graph.Node, pt.p)
	for _, a := range pt.Automorphisms() {
		for i := 0; i < pt.p; i++ {
			tmp[i] = phi[a[i]]
		}
		for i := 0; i < pt.p; i++ {
			if tmp[i] != best[i] {
				if tmp[i] < best[i] {
					copy(best, tmp)
				}
				break
			}
		}
	}
	return fmt.Sprint(best)
}
