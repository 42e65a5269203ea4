package graph

import "slices"

// Fragment is a reducer's edge list laid out once as a CSR whose node
// numbers are ranks under the job's node order: rank r is the r-th node in
// that order, Neighbors(r) lists the ranks adjacent to it ascending, and
// comparing two nodes in the job's order is comparing two int32s. The CQ
// reducers evaluate entirely on ranks and translate back to global ids
// (ID) only for the assignments they keep.
//
// The order is a key, not a comparator: a node's key carries its id in the
// low word and the major part of the order (the node's bucket under the
// Section 2.3 order) in the high word, so ranking never calls back per
// comparison, and the major part stays readable per rank afterwards. A
// share-hashed reducer gets its ranks without sorting at all: Merge merges
// the runs its blocks were laid out into once per job (BlockRuns); Build
// sorts the keys of one edge list itself. Either way the same layout
// follows.
//
// A Fragment owns its storage and reuses it, growing it geometrically, so
// a reduce worker that keeps one Fragment allocates only a few times per
// job however its groups grow. It is also where the worker keeps the runs
// of the blocks it prepares (Prepare). The zero value is an empty fragment.
type Fragment struct {
	// Keys holds the order key of every rank, strictly ascending.
	Keys []uint64
	// Off and Nbr are the CSR: the neighbors of rank r are
	// Nbr[Off[r]:Off[r+1]], ascending, without duplicates or self-loops.
	Off []int32
	Nbr []int32

	rank []int32 // node id → rank, one word per node id seen so far
	// cur and tmp are the merges' ping-pong buffers, then the scatters'
	// fill cursor and the adjacency grouped by source.
	cur, tmp []int32
	runs     []Run // the task's runs, grouped by major; Prepare's scratch

	// The chunks the runs this worker prepared live in: append-only,
	// because other workers read a run once it is stored, so a full chunk
	// is left in place and a new one started.
	ids    []Node
	stored []Run
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
// NodeHash.Key do), which also makes it injective. It is the one-run case
// of Merge: the edge list's distinct keys, sorted here, then the same
// layout.
func (f *Fragment) Build(edges []Edge, key func(Node) uint64) {
	keys := f.Keys[:0]
	for _, e := range edges {
		if e.U != e.V {
			keys = append(keys, key(e.U), key(e.V))
		}
	}
	slices.Sort(keys)
	f.Keys = slices.Compact(keys)
	f.grow(edges)
	f.layout(edges)
}

// Merge lays out edges — a reduce task's group, gathered from the given
// blocks — from the runs prepared into br for those blocks, replacing the
// previous contents. The result is exactly Build(edges, key) under br's
// key: the ranks are the union of the blocks' runs, merged major by major
// with duplicates dropped, and no key is computed or sorted.
func (f *Fragment) Merge(edges []Edge, br *BlockRuns, blocks []int32) {
	runs := f.runs[:0]
	for _, b := range blocks {
		runs = append(runs, br.runs[b]...)
	}
	// Group the runs by major: a task reads a handful of blocks of at most
	// a few runs each, so an insertion sort.
	total := 0
	for i := range runs {
		for j := i; j > 0 && runs[j-1].Major > runs[j].Major; j-- {
			runs[j-1], runs[j] = runs[j], runs[j-1]
		}
		total += len(runs[i].IDs)
	}
	f.runs = runs
	f.cur, f.tmp, f.Keys = fit(f.cur, total), fit(f.tmp, total), fit(f.Keys, total)
	f.Keys = f.merge(f.Keys[:0], runs)
	f.grow(edges)
	f.layout(edges)
}

// merge appends to keys the union of runs, which are grouped by major, one
// major at a time.
//
//lint:hotpath
func (f *Fragment) merge(keys []uint64, runs []Run) []uint64 {
	for lo := 0; lo < len(runs); {
		hi := lo + 1
		for hi < len(runs) && runs[hi].Major == runs[lo].Major {
			hi++
		}
		keys = f.mergeMajor(keys, runs[lo:hi])
		lo = hi
	}
	return keys
}

// mergeMajor appends to keys the union of runs — one major's, each
// ascending and duplicate-free — as keys, ascending. Pairwise merges halve
// the number of runs until one is left, ping-ponging between cur and tmp
// (each with room for every id of runs), so n ids in r runs cost
// n·⌈log₂ r⌉ steps. runs is the caller's scratch and is overwritten.
//
//lint:hotpath
func (f *Fragment) mergeMajor(keys []uint64, runs []Run) []uint64 {
	for p := 0; len(runs) > 1; p ^= 1 {
		out := &f.cur
		if p == 1 {
			out = &f.tmp
		}
		buf := (*out)[:0]
		k := 0
		for i := 0; i < len(runs); i += 2 {
			start := len(buf)
			if i+1 < len(runs) {
				buf = mergeIDs(buf, runs[i].IDs, runs[i+1].IDs)
			} else {
				buf = append(buf, runs[i].IDs...)
			}
			runs[k].IDs = buf[start:len(buf):len(buf)]
			k++
		}
		runs = runs[:k]
	}
	hi := uint64(runs[0].Major) << 32
	for _, u := range runs[0].IDs {
		keys = append(keys, hi|uint64(uint32(u)))
	}
	return keys
}

// mergeIDs appends the union of a and b — each ascending and
// duplicate-free — to dst, ascending.
//
//lint:hotpath
func mergeIDs(dst, a, b []Node) []Node {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x < y:
			dst = append(dst, x)
			i++
		case y < x:
			dst = append(dst, y)
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// grow sizes the layout's storage for edges under the ranks Keys holds:
// the dense id → rank table up to the largest id, and the CSR and the
// scatters' scratch, each with headroom.
func (f *Fragment) grow(edges []Edge) {
	maxID := -1
	for _, k := range f.Keys {
		maxID = max(maxID, int(uint32(k)))
	}
	if len(f.rank) <= maxID {
		f.rank = make([]int32, max(maxID+1, 2*len(f.rank)))
	}
	n := len(f.Keys)
	f.Off, f.cur = fit(f.Off, n+1), fit(f.cur, n)
	f.Nbr, f.tmp = fit(f.Nbr, 2*len(edges)), fit(f.tmp, 2*len(edges))
}

// layout lays edges out under the ranks f.Keys already holds — the distinct
// keys of their endpoints, ascending — on storage grow has sized. No
// comparison sort touches the adjacency: endpoints become ranks through the
// dense id → rank table, and the 2m directed rank pairs are grouped by
// source with a counting scatter, then scattered again in source order —
// the transpose of a symmetric adjacency is itself with every list
// ascending — and deduped in place.
//
//lint:hotpath
func (f *Fragment) layout(edges []Edge) {
	keys, rank := f.Keys, f.rank
	n := len(keys)
	for r, k := range keys {
		rank[uint32(k)] = int32(r)
	}

	// Degrees (duplicates included) → offsets; Nbr parks the ranks of each
	// kept edge's endpoints until the first scatter has read them.
	off, ends := f.Off[:n+1], f.Nbr[:0]
	clear(off)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		u, v := rank[e.U], rank[e.V]
		ends = append(ends, u, v)
		off[u+1]++
		off[v+1]++
	}
	for r := 0; r < n; r++ {
		off[r+1] += off[r]
	}

	// First scatter: group by source.
	cur, tmp := f.cur[:n], f.tmp[:len(ends)]
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

// fit returns s with length n, reallocated when its capacity is short to
// at least double that capacity: storage grows geometrically, so a worker
// whose groups keep growing reallocates O(log) times, not once per new
// largest group, and its first group costs no more than its size.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
