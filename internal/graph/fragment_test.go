package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// checkFragment verifies every structural invariant of a built Fragment
// against the raw edge list it was built from, without going through any
// other adjacency structure of the package.
func checkFragment(t *testing.T, f *Fragment, edges []Edge, key func(Node) uint64) {
	t.Helper()
	want := map[[2]Node]bool{} // distinct non-loop edges, canonical
	nodes := map[Node]bool{}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		c := e.Canon()
		want[[2]Node{c.U, c.V}] = true
		nodes[e.U], nodes[e.V] = true, true
	}
	n := f.NumNodes()
	if n != len(nodes) {
		t.Fatalf("%d ranks, want %d distinct endpoint nodes", n, len(nodes))
	}
	if f.NumEdges() != len(want) {
		t.Fatalf("NumEdges = %d, want %d distinct non-loop edges", f.NumEdges(), len(want))
	}
	if len(f.Off) != n+1 || f.Off[0] != 0 || int(f.Off[n]) != len(f.Nbr) {
		t.Fatalf("Off = %v does not frame Nbr (len %d)", f.Off, len(f.Nbr))
	}
	for r := int32(0); r < int32(n); r++ {
		if f.Keys[r] != key(f.ID(r)) || !nodes[f.ID(r)] {
			t.Fatalf("rank %d: key %#x is not the key of an endpoint node (id %d)", r, f.Keys[r], f.ID(r))
		}
		if r > 0 && f.Keys[r-1] >= f.Keys[r] {
			t.Fatalf("Keys not strictly ascending at rank %d: %#x, %#x", r, f.Keys[r-1], f.Keys[r])
		}
		if f.Off[r] > f.Off[r+1] {
			t.Fatalf("Off not monotone at rank %d: %v", r, f.Off)
		}
		list := f.Neighbors(r)
		for i, v := range list {
			if v < 0 || int(v) >= n || v == r {
				t.Fatalf("rank %d: neighbor %d out of range or a self-loop", r, v)
			}
			if i > 0 && list[i-1] >= v {
				t.Fatalf("rank %d: list not strictly ascending: %v", r, list)
			}
			c := Edge{f.ID(r), f.ID(v)}.Canon()
			if !want[[2]Node{c.U, c.V}] {
				t.Fatalf("rank pair (%d,%d) = edge %v is not in the input", r, v, c)
			}
			back := f.Neighbors(v)
			found := false
			for _, x := range back {
				found = found || x == r
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d lists %d but not the reverse", r, v)
			}
		}
	}
}

// randomMultiset draws edges over sparse (non-dense) ids with duplicates,
// both orientations and self-loops mixed in.
func randomMultiset(rng *rand.Rand, nodes, m int) []Edge {
	ids := make([]Node, nodes)
	for i := range ids {
		ids[i] = Node(rng.Intn(1 << 20))
	}
	var edges []Edge
	for len(edges) < m {
		e := Edge{ids[rng.Intn(nodes)], ids[rng.Intn(nodes)]}
		edges = append(edges, e)
		switch rng.Intn(6) {
		case 0:
			edges = append(edges, e) // duplicate
		case 1:
			edges = append(edges, Edge{e.V, e.U}) // reversed duplicate
		case 2:
			edges = append(edges, Edge{e.U, e.U}) // self-loop
		}
	}
	return edges
}

// TestFragmentBuild: the layout invariants hold under the natural and the
// (bucket, id) orders, across reuse of one Fragment for groups that grow
// and shrink, and Major returns the bucket the key was built from.
func TestFragmentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var f Fragment
	for round, size := range []int{40, 400, 5, 0, 90, 1} {
		edges := randomMultiset(rng, 4+size/3, size)
		h := NodeHash{Seed: uint64(round), B: 1 + 2*round}
		for _, key := range []func(Node) uint64{NaturalKey, h.Key} {
			f.Build(edges, key)
			checkFragment(t, &f, edges, key)
		}
		for r := int32(0); r < int32(f.NumNodes()); r++ {
			if f.Major(r) != h.Bucket(f.ID(r)) {
				t.Fatalf("rank %d: stored bucket %d, hash says %d", r, f.Major(r), h.Bucket(f.ID(r)))
			}
		}
	}
	f.Build(nil, NaturalKey)
	if f.NumNodes() != 0 || f.NumEdges() != 0 {
		t.Fatal("empty build left nodes behind")
	}
	var zero Fragment
	if zero.NumNodes() != 0 || zero.NumEdges() != 0 {
		t.Fatal("zero Fragment is not empty")
	}
}

// TestFragmentBuildReusesStorage: once a Fragment has seen its largest
// group, building or merging — that group again or any smaller one —
// allocates nothing.
func TestFragmentBuildReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big, small := randomMultiset(rng, 60, 500), randomMultiset(rng, 10, 30)
	key := NodeHash{Seed: 1, B: 5}.Key
	var f Fragment
	f.Build(big, key)
	if allocs := testing.AllocsPerRun(20, func() {
		f.Build(small, key)
		f.Build(big, key)
	}); allocs != 0 {
		t.Fatalf("Build on warmed storage allocates: %v allocs/run", allocs)
	}

	// Two blocks per group; the big group reads the small one's blocks too.
	br := NewBlockRuns(4, key)
	blocks := [][]Edge{small[:10], small[10:], big[:250], big[250:]}
	for b, edges := range blocks {
		f.Prepare(&br, b, edges)
	}
	smallIDs, bigIDs := []int32{0, 1}, []int32{0, 1, 2, 3}
	bigEdges := append(slices.Clone(small), big...)
	f.Merge(bigEdges, &br, bigIDs)
	if allocs := testing.AllocsPerRun(20, func() {
		f.Merge(small, &br, smallIDs)
		f.Merge(bigEdges, &br, bigIDs)
	}); allocs != 0 {
		t.Fatalf("Merge on warmed storage allocates: %v allocs/run", allocs)
	}
}

// checkMerge prepares each block of edges into br — spread over two
// fragments, as two reduce workers would — merges the task that reads the
// blocks listed in task into f, and requires exactly the Keys, Off and Nbr
// Build lays out for the task's gathered edges.
func checkMerge(t *testing.T, f *Fragment, blocks [][]Edge, task []int32, key func(Node) uint64) {
	t.Helper()
	br := NewBlockRuns(len(blocks), key)
	var workers [2]Fragment
	for b, edges := range blocks {
		workers[b%2].Prepare(&br, b, edges)
	}
	var group []Edge
	for _, b := range task {
		group = append(group, blocks[b]...)
	}
	f.Merge(group, &br, task)
	var want Fragment
	want.Build(group, key)
	if !slices.Equal(f.Keys, want.Keys) || !slices.Equal(f.Off, want.Off) || !slices.Equal(f.Nbr, want.Nbr) {
		t.Fatalf("merged layout of blocks %v differs from Build:\nKeys %v\n want %v\nOff %v\n want %v\nNbr %v\n want %v",
			task, f.Keys, want.Keys, f.Off, want.Off, f.Nbr, want.Nbr)
	}
	checkFragment(t, f, group, key)
}

// TestFragmentMergeMatchesBuild: over random multisets cut into random,
// overlapping blocks — some in Graph.Edges order, some not — under the
// natural and the (bucket, id) order, a task merged from any subset of the
// blocks is laid out exactly as Build lays out its gathered edges, and one
// Fragment reused across tasks stays exact.
func TestFragmentMergeMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var f Fragment
	for round := 0; round < 200; round++ {
		edges := randomMultiset(rng, 3+rng.Intn(40), rng.Intn(300))
		blocks := make([][]Edge, 1+rng.Intn(8))
		for _, e := range edges {
			for n := 1 + rng.Intn(2); n > 0; n-- { // some edges in two blocks
				b := rng.Intn(len(blocks))
				blocks[b] = append(blocks[b], e)
			}
		}
		if round%2 == 0 {
			for _, block := range blocks {
				for i, e := range block {
					block[i] = e.Canon()
				}
				slices.SortFunc(block, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
			}
		}
		var task []int32
		for b := range blocks {
			if rng.Intn(3) > 0 {
				task = append(task, int32(b))
			}
		}
		key := NaturalKey
		if round%3 > 0 {
			key = NodeHash{Seed: uint64(round), B: 1 + rng.Intn(6)}.Key
		}
		checkMerge(t, &f, blocks, task, key)
	}
}

// FuzzFragmentBuild decodes bytes into an edge multiset (three bytes per
// edge: two endpoints from a 64-node pool with sparse ids, one byte picking
// the order) and checks the layout invariants, building twice into one
// Fragment so storage reuse is fuzzed too.
func FuzzFragmentBuild(f *testing.F) {
	f.Add([]byte{1, 2, 0, 2, 1, 0, 3, 3, 0, 2, 5, 0})
	f.Add([]byte{0, 1, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 63, 0, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var edges []Edge
		order := byte(0)
		for i := 0; i+2 < len(data); i += 3 {
			u, v := Node(data[i]%64), Node(data[i+1]%64)
			edges = append(edges, Edge{u*977 + 5, v*977 + 5})
			order ^= data[i+2]
		}
		key := NaturalKey
		if b := int(order % 8); b > 0 {
			key = NodeHash{Seed: uint64(order), B: b}.Key
		}
		var frag Fragment
		frag.Build(edges[:len(edges)/2], key)
		checkFragment(t, &frag, edges[:len(edges)/2], key)
		frag.Build(edges, key)
		checkFragment(t, &frag, edges, key)
	})
}

// FuzzFragmentRuns decodes bytes into edges and cuts them into runs: a
// header byte picks the order (natural or (bucket, id) at 1–7 buckets), the
// number of blocks and whether each block is put in Graph.Edges order;
// then three bytes per edge give two endpoints from a 64-node pool with
// sparse ids and the block it lands in — a second block too when the high
// bit is set. Blocks overlap, repeat edges, hold self-loops or nothing. Two
// tasks, every block and the even-numbered ones, are merged into one
// Fragment and each must equal Build's layout of its gathered edges.
func FuzzFragmentRuns(f *testing.F) {
	f.Add([]byte{0x13, 1, 2, 0, 2, 1, 1, 3, 3, 0x82, 2, 5, 0})
	f.Add([]byte{0x80, 0, 1, 3, 1, 2, 3, 0, 2, 0x93, 0, 1, 3, 63, 0, 3})
	f.Add([]byte{0x4a})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		head := data[0]
		blocks := make([][]Edge, 1+int(head>>4&7))
		for i := 1; i+2 < len(data); i += 3 {
			e := Edge{Node(data[i]%64)*977 + 5, Node(data[i+1]%64)*977 + 5}
			sel := int(data[i+2])
			blocks[sel%len(blocks)] = append(blocks[sel%len(blocks)], e)
			if sel&0x80 != 0 {
				b := (sel >> 3) % len(blocks)
				blocks[b] = append(blocks[b], e)
			}
		}
		if head&0x80 != 0 {
			for _, block := range blocks {
				for i, e := range block {
					block[i] = e.Canon()
				}
				slices.SortFunc(block, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
			}
		}
		key := NaturalKey
		if b := int(head % 8); b > 0 {
			key = NodeHash{Seed: uint64(head), B: b}.Key
		}
		var all, even []int32
		for b := range blocks {
			all = append(all, int32(b))
			if b%2 == 0 {
				even = append(even, int32(b))
			}
		}
		var frag Fragment
		checkMerge(t, &frag, blocks, all, key)
		checkMerge(t, &frag, blocks, even, key)
	})
}
