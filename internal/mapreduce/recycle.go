package mapreduce

import (
	"hash/maphash"
	"reflect"
	"sync"
	"sync/atomic"
)

// Shuffle-buffer recycling. Every shipped batch used to be a fresh
// `make([]pair, 0, batch)`; at steady state a job ships
// (KeyValuePairs / batchSize) batches, so the allocator churn scaled with
// the communication cost. Batches now cycle through a per-pair-type free
// list: mappers take recycled buffers, reduce workers return each batch
// after folding it into their group table or spill buffer. The lists are
// keyed by the element type and shared process-wide, so a job reuses the
// buffers of earlier jobs over the same pair type instead of
// re-allocating. A reduce worker's outbox buffer cycles through the list
// of its output type the same way.
//
// The lists were kept on measurement after the share-hashed strategies
// moved to BlockJob and the plain Job was left with the cascade's rounds,
// and again once the group table stopped allocating per key: with get
// allocating fresh and put dropping, bench/run.sh (6 s a side, seeds 1-3,
// 2 vCPUs) measured tri-uniform at 432 → 4 216 allocs_per_query and
// 44.3 → 59.0 MB alloc_bytes_per_query, and tri-uniform-spill at
// 1 492 → 5 282 allocs and 21.4 → 36.1 MB — far over the benchmark's 3 %
// allocation bound.

// maxFreeBatches bounds the buffers kept per element type so the free list
// never pins more than a few MiB after a burst.
const maxFreeBatches = 128

// freeList is the free list for one element type. A plain mutex-guarded
// stack: ships happen once per batchSize pairs, so contention is
// negligible, and unlike sync.Pool it never allocates to box a slice.
type freeList[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// batchFreeList is the free list of a job's shuffle batches.
type batchFreeList[K comparable, V any] = freeList[pair[K, V]]

// freeLists maps reflect.Type(T) → *freeList[T].
var freeLists sync.Map

// listFor returns the process-wide free list for element type T.
func listFor[T any]() *freeList[T] {
	rt := reflect.TypeFor[T]()
	if l, ok := freeLists.Load(rt); ok {
		return l.(*freeList[T])
	}
	l, _ := freeLists.LoadOrStore(rt, &freeList[T]{})
	return l.(*freeList[T])
}

// freeListFor returns the process-wide free list for the job's pair type.
func freeListFor[K comparable, V any]() *batchFreeList[K, V] { return listFor[pair[K, V]]() }

// get returns an empty batch, recycled when available.
func (l *freeList[T]) get(capHint int) []T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return b
	}
	l.mu.Unlock()
	return make([]T, 0, capHint)
}

// put recycles a consumed batch. Slots are cleared first, up to its
// capacity, so a parked buffer does not pin the previous round's keys,
// values or outputs.
//
//lint:hotpath
func (l *freeList[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	clear(b[:cap(b)])
	l.mu.Lock()
	if len(l.free) < maxFreeBatches {
		l.free = append(l.free, b)
	}
	l.mu.Unlock()
}

// Bucketed grouping for the in-memory reduce path (with a memory budget the
// worker buffers flat and sorts instead; see spill.go). One partition-wide
// hash table does not fit any cache once a partition holds a few hundred
// thousand keys, so every arriving pair would pay a cache miss to probe it
// and the table's growth would copy it several times over. Instead arrival
// only appends, and grouping runs after the partition's channel closes, one
// hash bucket at a time:
//
//  1. add appends each pair to the current arrival chunk, with one byte
//     naming its bucket: the top 8 bits of the key's hash under the job's
//     seed.
//  2. group places every pair, by one counting pass over the bucket bytes,
//     into two exact-size slabs (keys and values) in bucket order, then
//     groups each bucket alone through one small map reused across buckets,
//     reordering the bucket so that every group is a contiguous run.
//  3. forEach walks the slabs run by run.
const (
	numBuckets = 256
	// Arrival chunks double from firstChunk pairs up to maxChunk, so a tiny
	// job pays a few KB and a large one O(log n) + n/maxChunk allocations,
	// with no append growth chain over a partition-sized slice.
	firstChunk = 256
	maxChunk   = 128 << 10
)

// groupTable groups one partition's shuffled pairs by key. Values keep
// their arrival order within a group; groups come out in bucket order.
type groupTable[K comparable, V any] struct {
	seed   maphash.Seed // the job's seed: a key's bucket is fixed per run
	chunks []arrivalChunk[K, V]
	cur    arrivalChunk[K, V] // the chunk add appends to
	counts [numBuckets]int    // pairs per bucket

	// Set by group: the partition in bucket order, each group one run.
	keys  []K
	vals  []V
	nkeys int
}

// arrivalChunk holds pairs in arrival order beside their bucket bytes.
type arrivalChunk[K comparable, V any] struct {
	pairs []pair[K, V]
	bkts  []uint8
}

func newGroupTable[K comparable, V any](seed maphash.Seed) *groupTable[K, V] {
	return &groupTable[K, V]{seed: seed}
}

// add records one arrived pair: an append to the current chunk, no probe.
//
//lint:hotpath
func (t *groupTable[K, V]) add(k K, v V) {
	if len(t.cur.pairs) == cap(t.cur.pairs) {
		t.nextChunk()
	}
	b := uint8(maphash.Comparable(t.seed, k) >> 56)
	t.cur.pairs = append(t.cur.pairs, pair[K, V]{k, v})
	t.cur.bkts = append(t.cur.bkts, b)
	t.counts[b]++
}

// nextChunk retires the full current chunk and starts one twice its size,
// up to maxChunk. It is kept out of line so that its allocations, once per
// chunk, stay off add's hot path.
//
//go:noinline
func (t *groupTable[K, V]) nextChunk() {
	size := firstChunk
	if c := cap(t.cur.pairs); c > 0 {
		if t.chunks == nil {
			// 32 chunks hold 3.1 M pairs: one allocation for the list
			// of most partitions.
			t.chunks = make([]arrivalChunk[K, V], 0, 32)
		}
		t.chunks = append(t.chunks, t.cur)
		size = min(2*c, maxChunk)
	}
	t.cur = arrivalChunk[K, V]{make([]pair[K, V], 0, size), make([]uint8, 0, size)}
}

// group lays the arrived pairs out in bucket order and groups each bucket,
// counting the distinct keys for numKeys. It polls stop between buckets
// and returns false, the table unusable, once it is set.
func (t *groupTable[K, V]) group(stop *atomic.Bool) bool {
	var start [numBuckets + 1]int
	largest := 0
	for b, c := range t.counts {
		start[b+1] = start[b] + c
		largest = max(largest, c)
	}
	n := start[numBuckets]
	if n == 0 {
		return true
	}
	t.keys, t.vals = make([]K, n), make([]V, n)
	next := [numBuckets]int(start[:numBuckets])
	for _, c := range t.chunks {
		t.place(c, &next)
	}
	t.place(t.cur, &next)
	t.chunks, t.cur = nil, arrivalChunk[K, V]{} // garbage from here on
	g := bucketGrouper[K, V]{
		idx:  make(map[K]int32, n/numBuckets+1),
		gis:  make([]int32, largest),
		next: make([]int32, 0, largest),
	}
	for b := range numBuckets {
		if stop.Load() {
			return false
		}
		keys, vals := t.keys[start[b]:start[b+1]], t.vals[start[b]:start[b+1]]
		ng := g.index(keys)
		t.nkeys += ng
		if ng > 1 && ng < len(keys) { // else every group already is one run
			if cap(g.tkeys) < len(keys) {
				g.tkeys, g.tvals = make([]K, len(keys)), make([]V, len(keys))
			}
			g.reorder(keys, vals)
		}
	}
	return true
}

// place copies a chunk's pairs to their buckets' next free slots. Called on
// the chunks in arrival order, it is a stable counting placement: a bucket
// keeps its pairs in arrival order.
//
//lint:hotpath
func (t *groupTable[K, V]) place(c arrivalChunk[K, V], next *[numBuckets]int) {
	for i, b := range c.bkts {
		j := next[b]
		t.keys[j], t.vals[j] = c.pairs[i].key, c.pairs[i].val
		next[b] = j + 1
	}
}

// bucketGrouper is the scratch one partition's buckets are grouped with,
// sized by its largest bucket and reused across buckets.
type bucketGrouper[K comparable, V any] struct {
	idx   map[K]int32 // key → group, within the bucket
	gis   []int32     // bucket position → group
	next  []int32     // group → size, then placement cursor
	tkeys []K         // reorder scratch
	tvals []V
}

// index numbers the bucket's groups in first-arrival order, recording each
// pair's group and each group's size, and returns the number of groups.
//
//lint:hotpath
func (g *bucketGrouper[K, V]) index(keys []K) int {
	clear(g.idx)
	g.next = g.next[:0]
	gis := g.gis[:len(keys)]
	for i, k := range keys {
		gi, ok := g.idx[k]
		if !ok {
			gi = int32(len(g.next))
			g.idx[k] = gi
			g.next = append(g.next, 0)
		}
		g.next[gi]++
		gis[i] = gi
	}
	return len(g.next)
}

// reorder makes each group of the indexed bucket one contiguous run, groups
// in first-arrival order and values in arrival order, through the reorder
// scratch (at least the bucket's length).
//
//lint:hotpath
func (g *bucketGrouper[K, V]) reorder(keys []K, vals []V) {
	var at int32
	for gi, c := range g.next {
		g.next[gi] = at
		at += c
	}
	tkeys, tvals := g.tkeys[:len(keys)], g.tvals[:len(keys)]
	for i, gi := range g.gis[:len(keys)] {
		j := g.next[gi]
		tkeys[j], tvals[j] = keys[i], vals[i]
		g.next[gi] = j + 1
	}
	copy(keys, tkeys)
	copy(vals, tvals)
}

// numKeys returns the number of distinct keys; exact once group returned
// true.
func (t *groupTable[K, V]) numKeys() int { return t.nkeys }

// forEach invokes fn once per key, with the key's values in arrival order
// in a slice that is only valid during the call. A false return stops the
// iteration. It returns the largest group handed to fn. The table is
// consumed: forEach may be called once, after group returned true.
func (t *groupTable[K, V]) forEach(fn func(k K, vs []V) bool) (maxIn int64) {
	keys, vals := t.keys, t.vals
	t.keys, t.vals = nil, nil
	for lo := 0; lo < len(keys); {
		// Groups are contiguous and distinct keys differ, so a run of
		// equal keys is exactly one group.
		k, hi := keys[lo], lo+1
		for hi < len(keys) && keys[hi] == k {
			hi++
		}
		if !fn(k, vals[lo:hi]) {
			break
		}
		maxIn = max(maxIn, int64(hi-lo))
		lo = hi
	}
	return maxIn
}
