package graph

import "sort"

// Less is a strict total order on nodes. The CQ machinery (Section 3 of the
// paper) assumes "some given order of the nodes"; implementations here are
// the natural identifier order and the nondecreasing-degree order used by
// the serial algorithms of Section 7. The reducers take their order as a
// Fragment key instead (NaturalKey, and NodeHash.Key for the
// hash-then-identifier order of Section 2.3).
type Less func(u, v Node) bool

// NaturalLess orders nodes by identifier.
func NaturalLess(u, v Node) bool { return u < v }

// DegreeLess returns the order in which nodes appear by nondecreasing
// degree, with identifiers breaking ties (the order < of Section 7.1 used
// for properly ordered 2-paths).
func (g *Graph) DegreeLess() Less {
	rank := g.DegreeRank()
	return func(u, v Node) bool { return rank[u] < rank[v] }
}

// DegreeRank returns rank[u] = position of u in the nondecreasing-degree
// order (ties broken by identifier).
func (g *Graph) DegreeRank() []int32 {
	nodes := make([]Node, g.n)
	for i := range nodes {
		nodes[i] = Node(i)
	}
	sort.Slice(nodes, func(i, j int) bool {
		du, dv := g.Degree(nodes[i]), g.Degree(nodes[j])
		if du != dv {
			return du < dv
		}
		return nodes[i] < nodes[j]
	})
	rank := make([]int32, g.n)
	for pos, u := range nodes {
		rank[u] = int32(pos)
	}
	return rank
}

// NodeHash maps nodes to buckets 0 .. B-1 using a seeded mixing function, so
// different jobs and different variables can use independent hashes.
type NodeHash struct {
	Seed uint64
	B    int
}

// Bucket returns the bucket of node u in [0, h.B).
func (h NodeHash) Bucket(u Node) int {
	x := uint64(uint32(u)) + h.Seed
	// splitmix64 finalizer: cheap, well-mixed, deterministic across runs.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(h.B))
}
