package mapreduce

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// TestBatchRecyclingShipPathZeroAlloc pins the recycled-batch ship path: a
// get/put cycle through a warmed free list performs no allocations, so at
// steady state batch shipping costs only the append of pairs.
func TestBatchRecyclingShipPathZeroAlloc(t *testing.T) {
	l := freeListFor[int, int]()
	// Warm the list with one full-capacity batch.
	b := l.get(256)
	for i := 0; i < 256; i++ {
		b = append(b, pair[int, int]{i, i})
	}
	l.put(b)
	if allocs := testing.AllocsPerRun(100, func() {
		batch := l.get(256)
		batch = append(batch, pair[int, int]{1, 2})
		l.put(batch)
	}); allocs != 0 {
		t.Fatalf("recycled ship path allocates: %v allocs/run", allocs)
	}
}

// TestFreeListClearsRecycledBatches: parked buffers must not pin shipped
// values (pointer-typed values would otherwise leak a round's data).
func TestFreeListClearsRecycledBatches(t *testing.T) {
	l := freeListFor[string, *int]()
	x := new(int)
	b := l.get(4)
	b = append(b, pair[string, *int]{"k", x})
	l.put(b)
	got := l.get(4)
	if len(got) != 0 {
		t.Fatalf("recycled batch not empty: len %d", len(got))
	}
	full := got[:cap(got)]
	for i := range full {
		if full[i].val != nil || full[i].key != "" {
			t.Fatal("recycled batch retains previous round's pair")
		}
	}
}

// TestGroupTableGroupsLikeMap holds the bucketed group table against a
// map[K][]V reference on seeded random inputs: the same groups, each with
// its values in arrival order, an exact numKeys before forEach, and maxIn.
// Bucket assignment follows a fresh hash seed per table, so repeated runs
// (-count) cover different bucket layouts.
func TestGroupTableGroupsLikeMap(t *testing.T) {
	r := rand.New(rand.NewPCG(36, 1))
	randomKeys := func(n, distinct int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = r.Uint64N(uint64(distinct))
		}
		return ks
	}
	distinct := make([]uint64, maxChunk+1000) // all distinct, past the chunk cap
	for i := range distinct {
		distinct[i] = r.Uint64()
	}
	checkGrouping(t, "distinct-past-chunk-cap", distinct)
	checkGrouping(t, "one-key", make([]uint64, 5000)) // the zero key holds every value
	checkGrouping(t, "zero-key-among-others", randomKeys(3000, 40))
	checkGrouping(t, "fewer-pairs-than-buckets", randomKeys(100, 30))
	checkGrouping(t, "repeats-past-chunk-cap", randomKeys(3*maxChunk, maxChunk/2))
	checkGrouping(t, "single-pair", []uint64{7})
	checkGrouping(t, "empty", []uint64{})
	words := make([]string, 20000)
	for i := range words {
		words[i] = fmt.Sprintf("k%d", r.IntN(3000))
	}
	words[r.IntN(len(words))] = "" // the zero string key
	checkGrouping(t, "string-keys", words)
}

// checkGrouping adds keys[i] with value i and compares what the table
// groups with a map[K][]int built from the same arrivals.
func checkGrouping[K comparable](t *testing.T, name string, keys []K) {
	t.Helper()
	tab := newGroupTable[K, int](maphash.MakeSeed())
	want := map[K][]int{}
	var wantMax int64
	for i, k := range keys {
		tab.add(k, i)
		want[k] = append(want[k], i)
		wantMax = max(wantMax, int64(len(want[k])))
	}
	if !tab.group(new(atomic.Bool)) {
		t.Fatalf("%s: group stopped without a stop", name)
	}
	if tab.numKeys() != len(want) {
		t.Fatalf("%s: numKeys = %d, want %d", name, tab.numKeys(), len(want))
	}
	seen := map[K]bool{}
	maxIn := tab.forEach(func(k K, vs []int) bool {
		if seen[k] {
			t.Fatalf("%s: key %v reduced twice", name, k)
		}
		seen[k] = true
		if !slices.Equal(vs, want[k]) {
			t.Fatalf("%s: key %v: got %v, want %v (arrival order)", name, k, vs, want[k])
		}
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("%s: reduced %d keys, want %d", name, len(seen), len(want))
	}
	if maxIn != wantMax {
		t.Fatalf("%s: maxIn = %d, want %d", name, maxIn, wantMax)
	}
}

// TestGroupTableEarlyStop: a false return stops iteration without touching
// later groups and leaves numKeys as it was; a stop set before grouping
// ends it between buckets.
func TestGroupTableEarlyStop(t *testing.T) {
	tab := newGroupTable[int, int](maphash.MakeSeed())
	for i := 0; i < 10; i++ {
		tab.add(i, i)
	}
	tab.group(new(atomic.Bool))
	calls := 0
	tab.forEach(func(int, []int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("forEach made %d calls after stop, want 3", calls)
	}
	if tab.numKeys() != 10 {
		t.Fatalf("numKeys after an early stop = %d, want 10", tab.numKeys())
	}

	var stop atomic.Bool
	stop.Store(true)
	tab = newGroupTable[int, int](maphash.MakeSeed())
	tab.add(1, 1)
	if tab.group(&stop) {
		t.Fatal("group ran to the end under a stop")
	}
}

// TestGroupTableAllocations pins the in-memory shuffle's cost: grouping
// 1<<20 distinct uint64 keys with 8-byte values takes at most 64
// allocations and 48 bytes a pair. A partition-wide hash table spends
// several times the bytes on its own growth.
func TestGroupTableAllocations(t *testing.T) {
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := newGroupTable[uint64, uint64](maphash.MakeSeed())
	for i := uint64(0); i < n; i++ {
		tab.add(i*0x9e3779b97f4a7c15, i)
	}
	tab.group(new(atomic.Bool))
	keys := tab.numKeys()
	tab.forEach(func(uint64, []uint64) bool { return true })
	runtime.ReadMemStats(&after)
	if keys != n {
		t.Fatalf("numKeys = %d, want %d", keys, n)
	}
	allocs := after.Mallocs - before.Mallocs
	perPair := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d allocations, %.1f B/pair", allocs, perPair)
	if allocs > 64 {
		t.Errorf("%d allocations, want at most 64", allocs)
	}
	if perPair > 48 {
		t.Errorf("%.1f B/pair allocated, want at most 48", perPair)
	}
}
