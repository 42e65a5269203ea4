package mapreduce

import (
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

// TestGroupTableGroupsLikeMap: the slab group table reproduces the map
// grouping exactly — same keys, same per-key value multiset in arrival
// order, correct max group size.
func TestGroupTableGroupsLikeMap(t *testing.T) {
	tab := newGroupTable[string, int]()
	want := map[string][]int{}
	seq := []struct {
		k string
		v int
	}{{"a", 1}, {"b", 2}, {"a", 3}, {"c", 4}, {"b", 5}, {"a", 6}, {"", 7}}
	for _, kv := range seq {
		tab.add(kv.k, kv.v)
		want[kv.k] = append(want[kv.k], kv.v)
	}
	if tab.numKeys() != len(want) {
		t.Fatalf("numKeys = %d, want %d", tab.numKeys(), len(want))
	}
	got := map[string][]int{}
	maxIn := tab.forEach(func(k string, vs []int) bool {
		got[k] = append([]int(nil), vs...)
		return true
	})
	if maxIn != 3 {
		t.Fatalf("maxIn = %d, want 3", maxIn)
	}
	for k, vs := range want {
		g := got[k]
		if len(g) != len(vs) {
			t.Fatalf("key %q: got %v, want %v", k, g, vs)
		}
		for i := range vs {
			if g[i] != vs[i] {
				t.Fatalf("key %q: got %v, want %v (arrival order lost)", k, g, vs)
			}
		}
	}
}

// TestGroupTableEarlyStop: a false return stops iteration without touching
// later groups.
func TestGroupTableEarlyStop(t *testing.T) {
	tab := newGroupTable[int, int]()
	for i := 0; i < 10; i++ {
		tab.add(i, i)
	}
	calls := 0
	tab.forEach(func(int, []int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("forEach made %d calls after stop, want 3", calls)
	}
}
