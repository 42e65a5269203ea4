package sample

import "math/bits"

// PartKind labels a piece of a sample-graph decomposition in the sense of
// Theorem 7.2: isolated nodes, pairs of nodes connected by an edge, and
// subgraphs containing an odd-length Hamilton cycle.
type PartKind int

const (
	// IsolatedNode is a single node with no constraint inside its part.
	IsolatedNode PartKind = iota
	// EdgePair is a pair of nodes connected by a sample edge.
	EdgePair
	// OddHamiltonian is a node set of odd size ≥ 3 whose induced sample
	// subgraph contains a Hamilton cycle; Vars lists the nodes in Hamilton
	// cycle order.
	OddHamiltonian
)

func (k PartKind) String() string {
	switch k {
	case IsolatedNode:
		return "isolated"
	case EdgePair:
		return "edge"
	case OddHamiltonian:
		return "odd-hamiltonian"
	}
	return "unknown"
}

// Part is one piece of a decomposition: for OddHamiltonian, Vars is in
// Hamilton-cycle order; otherwise the order is immaterial.
type Part struct {
	Kind PartKind
	Vars []int
}

// Decompose partitions the sample's nodes into parts per Theorem 7.2,
// minimizing the number q of isolated nodes (because the resulting
// enumeration algorithm runs in O(n^q · m^{(p-q)/2}), and trading n² for m
// always pays). It returns the parts and q, computed once and cached: safe
// for concurrent use, and the parts are shared — do not modify them.
func (s *Sample) Decompose() ([]Part, int) {
	s.decOnce.Do(func() { s.parts, s.isolated = s.decompose() })
	return s.parts, s.isolated
}

// decompose is the bitmask dynamic program behind Decompose: O(3^p)
// submask steps, each an odd-Hamiltonian test memoized per mask.
func (s *Sample) decompose() ([]Part, int) {
	p := s.p
	full := (1 << p) - 1

	// hamOrder[mask] caches a Hamilton cycle order for odd masks that have
	// one (nil = none / not applicable).
	hamOrder := make(map[int][]int)
	oddHam := func(mask int) []int {
		if order, ok := hamOrder[mask]; ok {
			return order
		}
		order := s.hamiltonCycleOnMask(mask)
		hamOrder[mask] = order
		return order
	}

	const inf = 1 << 20
	cost := make([]int, full+1)   // min isolated nodes for this node subset
	choice := make([]int, full+1) // submask removed at this step (0 ⇒ isolated)
	for mask := 1; mask <= full; mask++ {
		cost[mask] = inf
		v := bits.TrailingZeros(uint(mask))
		// Option 1: v is an isolated part.
		rest := mask &^ (1 << v)
		if cost[rest]+1 < cost[mask] {
			cost[mask] = cost[rest] + 1
			choice[mask] = 1 << v
		}
		// Option 2: v pairs with an adjacent u.
		for u := 0; u < p; u++ {
			if u == v || mask&(1<<u) == 0 || !s.adj[v][u] {
				continue
			}
			rest := mask &^ (1<<v | 1<<u)
			if cost[rest] < cost[mask] {
				cost[mask] = cost[rest]
				choice[mask] = 1<<v | 1<<u
			}
		}
		// Option 3: v belongs to an odd-Hamiltonian part. Enumerate submasks
		// of mask containing v with odd popcount ≥ 3.
		lower := mask &^ (1 << v)
		for sub := lower; ; sub = (sub - 1) & lower {
			part := sub | 1<<v
			if n := bits.OnesCount(uint(part)); n >= 3 && n%2 == 1 {
				if oddHam(part) != nil {
					rest := mask &^ part
					if cost[rest] < cost[mask] {
						cost[mask] = cost[rest]
						choice[mask] = part
					}
				}
			}
			if sub == 0 {
				break
			}
		}
	}

	var parts []Part
	for mask := full; mask != 0; {
		part := choice[mask]
		vars := maskToVars(part)
		switch {
		case len(vars) == 1:
			parts = append(parts, Part{IsolatedNode, vars})
		case len(vars) == 2:
			parts = append(parts, Part{EdgePair, vars})
		default:
			parts = append(parts, Part{OddHamiltonian, oddHam(part)})
		}
		mask &^= part
	}
	return parts, cost[full]
}

// hamiltonCycleOnMask returns a Hamilton cycle order of the sample subgraph
// induced on the nodes of mask, or nil if none exists. Only called for odd
// |mask| ≥ 3.
func (s *Sample) hamiltonCycleOnMask(mask int) []int {
	vars := maskToVars(mask)
	if len(vars) < 3 {
		return nil
	}
	start := vars[0]
	path := []int{start}
	inPath := 1 << start
	var dfs func() []int
	dfs = func() []int {
		if len(path) == len(vars) {
			if s.adj[path[len(path)-1]][start] {
				return append([]int(nil), path...)
			}
			return nil
		}
		last := path[len(path)-1]
		for _, v := range vars {
			if inPath&(1<<v) != 0 || !s.adj[last][v] {
				continue
			}
			path = append(path, v)
			inPath |= 1 << v
			if got := dfs(); got != nil {
				return got
			}
			path = path[:len(path)-1]
			inPath &^= 1 << v
		}
		return nil
	}
	return dfs()
}

func maskToVars(mask int) []int {
	var vars []int
	for mask != 0 {
		v := bits.TrailingZeros(uint(mask))
		vars = append(vars, v)
		mask &^= 1 << v
	}
	return vars
}
