// Package sample defines sample graphs (the paper's S, with p nodes): the
// small patterns whose instances are enumerated inside a large data graph.
// It provides the catalog used throughout the paper (triangle, square,
// lollipop, cycles, cliques, …), automorphism groups, connectivity
// utilities, and canonicalization of instances so that "each instance
// exactly once" is a checkable property.
package sample

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/perm"
)

// Sample is an undirected pattern graph on p nodes 0..p-1. Node i carries a
// display name (the paper's variable names W, X, Y, Z or X1..Xp).
type Sample struct {
	p     int
	adj   [][]bool
	edges [][2]int // i < j, sorted
	names []string

	autOnce sync.Once
	auts    []perm.Perm // cached automorphism group, computed under autOnce

	decOnce  sync.Once
	parts    []Part // cached Decompose result, computed under decOnce
	isolated int
}

// New builds a sample graph with p nodes and the given undirected edges.
// Names are optional; default names are X1..Xp.
func New(p int, edges [][2]int, names ...string) (*Sample, error) {
	if p < 1 {
		return nil, fmt.Errorf("sample: need at least one node, got %d", p)
	}
	if len(names) != 0 && len(names) != p {
		return nil, fmt.Errorf("sample: got %d names for %d nodes", len(names), p)
	}
	s := &Sample{p: p, adj: make([][]bool, p)}
	for i := range s.adj {
		s.adj[i] = make([]bool, p)
	}
	for _, e := range edges {
		i, j := e[0], e[1]
		if i == j || i < 0 || j < 0 || i >= p || j >= p {
			return nil, fmt.Errorf("sample: bad edge (%d,%d) for p=%d", i, j, p)
		}
		if i > j {
			i, j = j, i
		}
		if !s.adj[i][j] {
			s.adj[i][j], s.adj[j][i] = true, true
			s.edges = append(s.edges, [2]int{i, j})
		}
	}
	sort.Slice(s.edges, func(a, b int) bool {
		if s.edges[a][0] != s.edges[b][0] {
			return s.edges[a][0] < s.edges[b][0]
		}
		return s.edges[a][1] < s.edges[b][1]
	})
	if len(names) == p {
		s.names = append([]string(nil), names...)
	} else {
		s.names = make([]string, p)
		for i := range s.names {
			s.names[i] = fmt.Sprintf("X%d", i+1)
		}
	}
	return s, nil
}

// MustNew is New that panics on error; for the static catalog.
func MustNew(p int, edges [][2]int, names ...string) *Sample {
	s, err := New(p, edges, names...)
	if err != nil {
		panic(err)
	}
	return s
}

// P returns the number of nodes p.
func (s *Sample) P() int { return s.p }

// NumEdges returns the number of edges of the sample graph.
func (s *Sample) NumEdges() int { return len(s.edges) }

// Edges returns the edges as [i, j] pairs with i < j, sorted.
func (s *Sample) Edges() [][2]int { return s.edges }

// HasEdge reports whether nodes i and j are adjacent.
func (s *Sample) HasEdge(i, j int) bool { return i != j && s.adj[i][j] }

// Degree returns the degree of node i.
func (s *Sample) Degree(i int) int {
	d := 0
	for j := 0; j < s.p; j++ {
		if s.adj[i][j] {
			d++
		}
	}
	return d
}

// Name returns the display name of node i.
func (s *Sample) Name(i int) string { return s.names[i] }

// Names returns all display names.
func (s *Sample) Names() []string { return s.names }

// Adjacency returns a copy of the adjacency matrix.
func (s *Sample) Adjacency() [][]bool {
	out := make([][]bool, s.p)
	for i := range out {
		out[i] = append([]bool(nil), s.adj[i]...)
	}
	return out
}

// IsRegular reports whether all nodes have the same degree, and that degree.
func (s *Sample) IsRegular() (int, bool) {
	d := s.Degree(0)
	for i := 1; i < s.p; i++ {
		if s.Degree(i) != d {
			return 0, false
		}
	}
	return d, true
}

// Automorphisms returns the automorphism group of the sample graph,
// computed once and cached. Safe for concurrent use — reducers of a
// parallel enumeration call it on a shared Sample.
func (s *Sample) Automorphisms() []perm.Perm {
	s.autOnce.Do(func() { s.auts = perm.Automorphisms(s.adj) })
	return s.auts
}

// IsConnected reports whether the sample graph is connected.
func (s *Sample) IsConnected() bool {
	if s.p == 0 {
		return true
	}
	seen := make([]bool, s.p)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := 0; v < s.p; v++ {
			if s.adj[u][v] && !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == s.p
}

// ArticulationPoints returns a boolean per node: true if removing the node
// disconnects the sample graph (standard Tarjan low-link computation).
func (s *Sample) ArticulationPoints() []bool {
	const unvisited = -1
	disc := make([]int, s.p)
	low := make([]int, s.p)
	isAP := make([]bool, s.p)
	for i := range disc {
		disc[i] = unvisited
	}
	timer := 0
	var dfs func(u, parent int)
	dfs = func(u, parent int) {
		disc[u] = timer
		low[u] = timer
		timer++
		children := 0
		for v := 0; v < s.p; v++ {
			if !s.adj[u][v] {
				continue
			}
			if disc[v] == unvisited {
				children++
				dfs(v, u)
				if low[v] < low[u] {
					low[u] = low[v]
				}
				if parent != -1 && low[v] >= disc[u] {
					isAP[u] = true
				}
			} else if v != parent && disc[v] < low[u] {
				low[u] = disc[v]
			}
		}
		if parent == -1 && children > 1 {
			isAP[u] = true
		}
	}
	for i := 0; i < s.p; i++ {
		if disc[i] == unvisited {
			dfs(i, -1)
		}
	}
	return isAP
}

// String renders the sample graph as its edge list with display names.
func (s *Sample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sample(p=%d:", s.p)
	for _, e := range s.edges {
		fmt.Fprintf(&b, " %s-%s", s.names[e[0]], s.names[e[1]])
	}
	b.WriteString(")")
	return b.String()
}

// IsInstance reports whether the assignment phi (node of G per sample node)
// is a valid instance mapping: injective and with every sample edge mapped
// to an edge of g. (Non-induced semantics: extra edges of g are allowed,
// matching the conjunctive-query semantics of the paper.)
func (s *Sample) IsInstance(g *graph.Graph, phi []graph.Node) bool {
	if len(phi) != s.p {
		return false
	}
	for i := 0; i < s.p; i++ {
		for j := i + 1; j < s.p; j++ {
			if phi[i] == phi[j] {
				return false
			}
		}
	}
	for _, e := range s.edges {
		if !g.HasEdge(phi[e[0]], phi[e[1]]) {
			return false
		}
	}
	return true
}

// Canonical returns the lexicographically smallest assignment among the
// Aut(S)-orbit of phi. Two assignments produce the same instance (the same
// set of data-graph edges) exactly when they differ by an automorphism of S,
// so the canonical form is a unique witness per instance.
func (s *Sample) Canonical(phi []graph.Node) []graph.Node {
	best := append([]graph.Node(nil), phi...)
	tmp := make([]graph.Node, s.p)
	for _, a := range s.Automorphisms() {
		for i := 0; i < s.p; i++ {
			tmp[i] = phi[a[i]]
		}
		if lessTuple(tmp, best) {
			copy(best, tmp)
		}
	}
	return best
}

// IsCanonical reports whether phi is the canonical member of its orbit.
func (s *Sample) IsCanonical(phi []graph.Node) bool {
	tmp := make([]graph.Node, s.p)
	for _, a := range s.Automorphisms() {
		for i := 0; i < s.p; i++ {
			tmp[i] = phi[a[i]]
		}
		if lessTuple(tmp, phi) {
			return false
		}
	}
	return true
}

// Key returns a string key identifying the instance of phi (canonical form
// rendered as text); equal keys mean the same instance.
func (s *Sample) Key(phi []graph.Node) string {
	c := s.Canonical(phi)
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

func lessTuple(a, b []graph.Node) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
