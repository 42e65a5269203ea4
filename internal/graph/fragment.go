package graph

import "slices"

// Fragment is a reducer's edge list laid out once as a CSR whose node
// numbers are ranks under the job's node order: rank r is the r-th node in
// that order, Neighbors(r) lists the ranks adjacent to it ascending, and
// comparing two nodes in the job's order is comparing two int32s. The CQ
// reducers evaluate entirely on ranks and translate back to global ids
// (ID) only for the assignments they keep.
//
// The order is a key, not a comparator: Build sorts the distinct nodes by
// key(u), so the order costs one key computation per distinct node and one
// integer sort, and the major part of the key (the node's bucket under the
// Section 2.3 order) stays readable per rank afterwards.
//
// A Fragment owns its storage and Build reuses it, so a reduce worker that
// keeps one Fragment allocates only while its largest group is still
// growing. The zero value is an empty fragment.
type Fragment struct {
	// Keys holds the order key of every rank, strictly ascending.
	Keys []uint64
	// Off and Nbr are the CSR: the neighbors of rank r are
	// Nbr[Off[r]:Off[r+1]], ascending, without duplicates or self-loops.
	Off []int32
	Nbr []int32

	index  nodeIndex
	ids    []Node  // distinct nodes in discovery order
	rankOf []int32 // discovery position → rank; reused as the fill cursor
	tmp    []int32 // adjacency grouped by source, lists still unsorted
}

// NaturalKey is the Build key of the identifier order (NaturalLess) over
// non-negative node ids.
func NaturalKey(u Node) uint64 { return uint64(uint32(u)) }

// Key is the Build key of the (bucket, id) order of Section 2.3 — nodes by
// bucket, ties by id: the bucket in the high word, so Fragment.Major returns
// it per rank.
func (h NodeHash) Key(u Node) uint64 { return uint64(h.Bucket(u))<<32 | uint64(uint32(u)) }

// NumNodes returns the number of distinct nodes (ranks).
func (f *Fragment) NumNodes() int { return len(f.Keys) }

// NumEdges returns the number of distinct edges.
func (f *Fragment) NumEdges() int { return len(f.Nbr) / 2 }

// Neighbors returns the ranks adjacent to rank r, ascending.
func (f *Fragment) Neighbors(r int32) []int32 { return f.Nbr[f.Off[r]:f.Off[r+1]] }

// ID returns the global node id of rank r.
func (f *Fragment) ID(r int32) Node { return Node(uint32(f.Keys[r])) }

// Major returns the high word of rank r's key: its bucket under
// NodeHash.Key, 0 under NaturalKey.
func (f *Fragment) Major(r int32) int { return int(f.Keys[r] >> 32) }

// BucketRange returns the ranks [lo, hi) whose bucket (Major) is b. Under
// NodeHash.Key each bucket is one contiguous run of ranks, so this is two
// binary searches on Keys.
func (f *Fragment) BucketRange(b int) (lo, hi int32) {
	first := uint64(b) << 32
	l, _ := slices.BinarySearch(f.Keys, first)
	h, _ := slices.BinarySearch(f.Keys, first+1<<32)
	return int32(l), int32(h)
}

// Build lays out edges — in either orientation, duplicates and self-loops
// ignored — in the node order ascending in key, replacing the previous
// contents. key must carry the node id in its low word (as NaturalKey and
// NodeHash.Key do), which also makes it injective.
func (f *Fragment) Build(edges []Edge, key func(Node) uint64) {
	// A group of m edges has at most 2m nodes and 2m directed pairs. Storage
	// grows here, outside the hot path, and only for a group larger than any
	// before it.
	if m := len(edges); cap(f.Off) <= 2*m {
		f.Keys = make([]uint64, 2*m)
		f.Off = make([]int32, 2*m+1)
		f.Nbr = make([]int32, 2*m)
		f.ids = make([]Node, 2*m)
		f.rankOf = make([]int32, 2*m)
		f.tmp = make([]int32, 2*m)
	}
	f.index.reset(2 * len(edges))
	f.layout(edges, key)
}

// layout is Build on storage already sized and an index already empty. No
// comparison sort touches the adjacency: distinct nodes are discovered
// through the open-addressing table, ranked by one integer sort of their
// keys, and the 2m directed rank pairs are grouped by source with a
// counting scatter, then scattered again in source order — the transpose of
// a symmetric adjacency is itself with every list ascending — and deduped
// in place.
//
//lint:hotpath
func (f *Fragment) layout(edges []Edge, key func(Node) uint64) {
	// Discover the distinct nodes; Nbr parks the discovery positions of
	// each kept edge's endpoints until the first scatter has read them.
	ids, ends := f.ids[:0], f.Nbr[:0]
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		for _, u := range [2]Node{e.U, e.V} {
			h := f.index.find(ids, u)
			t := f.index.slot[h]
			if t < 0 {
				t = int32(len(ids))
				f.index.slot[h] = t
				ids = append(ids, u)
			}
			ends = append(ends, t)
		}
	}
	f.ids = ids
	n := len(ids)

	// Rank: one key per distinct node, one integer sort.
	keys := f.Keys[:n]
	for t, u := range ids {
		keys[t] = key(u)
	}
	slices.Sort(keys)
	rankOf := f.rankOf[:n]
	for r, k := range keys {
		rankOf[f.index.slot[f.index.find(ids, Node(uint32(k)))]] = int32(r)
	}
	f.Keys = keys

	// Degrees (duplicates included) → offsets.
	off := f.Off[:n+1]
	clear(off)
	for i, t := range ends {
		r := rankOf[t]
		ends[i] = r
		off[r+1]++
	}
	for r := 0; r < n; r++ {
		off[r+1] += off[r]
	}

	// First scatter: group by source. rankOf has served its purpose and
	// becomes the per-source fill cursor.
	cur, tmp := rankOf, f.tmp[:len(ends)]
	copy(cur, off[:n])
	for i := 0; i < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		tmp[cur[u]] = v
		cur[u]++
		tmp[cur[v]] = u
		cur[v]++
	}
	// Second scatter: walking sources in ascending order appends each to
	// its neighbors' lists in ascending order.
	nbr := ends
	copy(cur, off[:n])
	for u := 0; u < n; u++ {
		for _, v := range tmp[off[u]:off[u+1]] {
			nbr[cur[v]] = int32(u)
			cur[v]++
		}
	}

	// Dedup each list in place (a variable-oriented reducer receives the
	// same edge once per binding), closing the gaps.
	w, lo := int32(0), int32(0)
	for r := 0; r < n; r++ {
		hi := off[r+1]
		off[r] = w
		for i := lo; i < hi; i++ {
			if v := nbr[i]; i == lo || v != nbr[w-1] {
				nbr[w] = v
				w++
			}
		}
		lo = hi
	}
	off[n] = w
	f.Off, f.Nbr = off, nbr[:w]
}

// nodeIndex is an open-addressing table from node id to a position in a
// node list kept beside it (the Fragment's discovery list): power-of-2
// sized at ≥ 2× load, linear probing, so a lookup is one multiply and
// (almost always) one slot probe. The table stores positions only; the ids
// live in the list, which every call takes.
type nodeIndex struct {
	slot []int32 // position in the node list, -1 = empty
	mask uint32
}

// reset empties the table and sizes it for up to n nodes, reusing its
// storage when it is large enough.
func (x *nodeIndex) reset(n int) {
	size := 4
	for size < 2*n {
		size *= 2
	}
	if cap(x.slot) < size {
		x.slot = make([]int32, size)
	}
	x.slot = x.slot[:size]
	for i := range x.slot {
		x.slot[i] = -1
	}
	x.mask = uint32(size - 1)
}

// find returns the slot of u: the one holding its position in nodes, or
// the empty one where that position belongs.
//
//lint:hotpath
func (x *nodeIndex) find(nodes []Node, u Node) uint32 {
	h := idHash(u) & x.mask
	for j := x.slot[h]; j >= 0 && nodes[j] != u; j = x.slot[h] {
		h = (h + 1) & x.mask
	}
	return h
}

// idHash mixes a node id for the open-addressing table (splitmix32-style
// finalizer).
func idHash(u Node) uint32 {
	x := uint32(u)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}
