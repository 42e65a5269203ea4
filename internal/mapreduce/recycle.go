package mapreduce

import (
	"reflect"
	"sync"
)

// Shuffle-buffer recycling. Every shipped batch used to be a fresh
// `make([]pair, 0, batch)`; at steady state a job ships
// (KeyValuePairs / batchSize) batches, so the allocator churn scaled with
// the communication cost. Batches now cycle through a per-pair-type free
// list: mappers take recycled buffers, reduce workers return each batch
// after folding it into their group table or spill buffer. The lists are
// keyed by the (K, V) instantiation and shared process-wide, so the rounds
// of a Chain and repeated jobs reuse the previous round's buffers instead
// of re-allocating.
//
// The lists were kept on measurement after the share-hashed strategies
// moved to BlockJob and the plain Job was left with the cascade's rounds:
// with get allocating fresh and put dropping, bench/run.sh (8 s a side)
// measured tri-uniform at 70 627 → 74 413 allocs_per_query (+5.4 %) and
// 176.4 → 191.1 MB alloc_bytes_per_query, and tri-uniform-spill at
// 67 172 → 70 960 allocs and 23.5 → 38.2 MB — over the benchmark's 3 %
// allocation bound.

// maxFreeBatches bounds the buffers kept per (K, V) type so the free list
// never pins more than a few MiB after a burst.
const maxFreeBatches = 128

// batchFreeList is the free list for one pair[K, V] instantiation. A plain
// mutex-guarded stack: ships happen once per batchSize pairs, so contention
// is negligible, and unlike sync.Pool it never allocates to box a slice.
type batchFreeList[K comparable, V any] struct {
	mu   sync.Mutex
	free [][]pair[K, V]
}

// batchFreeLists maps reflect.Type(pair[K, V]) → *batchFreeList[K, V].
var batchFreeLists sync.Map

// freeListFor returns the process-wide free list for the job's pair type.
func freeListFor[K comparable, V any]() *batchFreeList[K, V] {
	rt := reflect.TypeFor[pair[K, V]]()
	if l, ok := batchFreeLists.Load(rt); ok {
		return l.(*batchFreeList[K, V])
	}
	l, _ := batchFreeLists.LoadOrStore(rt, &batchFreeList[K, V]{})
	return l.(*batchFreeList[K, V])
}

// get returns an empty batch, recycled when available.
func (l *batchFreeList[K, V]) get(capHint int) []pair[K, V] {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return b
	}
	l.mu.Unlock()
	return make([]pair[K, V], 0, capHint)
}

// put recycles a consumed batch. Slots are cleared first so a parked buffer
// does not pin the previous round's keys and values.
//
//lint:hotpath
func (l *batchFreeList[K, V]) put(b []pair[K, V]) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	b = b[:0]
	l.mu.Lock()
	if len(l.free) < maxFreeBatches {
		l.free = append(l.free, b)
	}
	l.mu.Unlock()
}

// groupTable accumulates one partition's shuffled pairs with O(keys)
// allocations instead of O(pairs): arriving values land in one growing
// value slab (plus a parallel group-index slab), and the per-key grouping
// is materialized once, after the partition's channel closes, by a counting
// placement into a second slab sliced by offsets. The previous
// map[K][]V grouping paid a slice-growth allocation chain for every key.
//
// Used by the in-memory reduce path only; with a memory budget the worker
// buffers flat and sorts instead (see spill.go).
type groupTable[K comparable, V any] struct {
	idx    map[K]int32 // key → group index
	keys   []K         // group index → key, in first-arrival order
	counts []int32     // group index → number of values
	gis    []int32     // arrival order → group index
	vals   []V         // arrival order → value
}

func newGroupTable[K comparable, V any]() *groupTable[K, V] {
	return &groupTable[K, V]{idx: make(map[K]int32)}
}

// add records one arrived pair. Slab growth amortizes to O(keys)
// allocations per partition; no per-pair allocation is permitted here.
//
//lint:hotpath
func (t *groupTable[K, V]) add(k K, v V) {
	gi, ok := t.idx[k]
	if !ok {
		gi = int32(len(t.keys))
		t.idx[k] = gi
		t.keys = append(t.keys, k)
		t.counts = append(t.counts, 0)
	}
	t.counts[gi]++
	t.gis = append(t.gis, gi)
	t.vals = append(t.vals, v)
}

// numKeys returns the number of distinct keys seen.
func (t *groupTable[K, V]) numKeys() int { return len(t.keys) }

// forEach regroups the slab by key (values keep their arrival order within
// a group) and invokes fn once per key in first-arrival order, with a value
// slice that is only valid during the call. A false return stops the
// iteration. It returns the largest group handed to fn. The table is
// consumed: forEach may be called once.
func (t *groupTable[K, V]) forEach(fn func(k K, vs []V) bool) (maxIn int64) {
	nk := len(t.keys)
	if nk == 0 {
		return 0
	}
	off := make([]int32, nk+1)
	for gi, c := range t.counts {
		off[gi+1] = off[gi] + c
	}
	slab := make([]V, len(t.vals))
	cur := t.counts // reuse the counts array as placement cursors
	copy(cur, off[:nk])
	for i, gi := range t.gis {
		slab[cur[gi]] = t.vals[i]
		cur[gi]++
	}
	t.gis, t.vals = nil, nil // free the arrival-order slabs before reducing
	for gi := 0; gi < nk; gi++ {
		vs := slab[off[gi]:off[gi+1]]
		if !fn(t.keys[gi], vs) {
			break
		}
		if n := int64(len(vs)); n > maxIn {
			maxIn = n
		}
	}
	return maxIn
}
