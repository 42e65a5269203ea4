package mapreduce

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// sortMatchesReference fills a spiller with keys, sorts it with sortBuf and
// reports whether the result is exactly the reference order: by key, then
// by arrival, which a stable sort of the entries in arrival order by key
// alone gives.
func sortMatchesReference(t *testing.T, keys []uint64) bool {
	t.Helper()
	s := newSpiller[uint64, int64](wordCodec{}, t.TempDir(), 1<<20)
	ref := make([]runEntry, len(keys))
	for i, k := range keys {
		s.buf = append(s.buf, pair[uint64, int64]{k, int64(i)})
		ref[i] = runEntry{key: k, idx: uint32(i)}
	}
	if err := s.sortBuf(); err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(ref, func(a, b runEntry) int { return cmp.Compare(a.key, b.key) })
	if !slices.Equal(s.ents, ref) {
		for i := range ref {
			if i >= len(s.ents) || s.ents[i] != ref[i] {
				t.Errorf("%d keys: sortBuf kept %d entries, and entry %d is not the reference's %+v", len(keys), len(s.ents), i, ref[i])
				break
			}
		}
		return false
	}
	return true
}

// quickSortOrder checks sortMatchesReference on seeded buffers of up to a
// few thousand keys drawn from gen, so the radix pass recurses past its
// small-bucket cutoff.
func quickSortOrder(t *testing.T, gen func(*rand.Rand) uint64) {
	t.Helper()
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, rng.Intn(3000))
		for i := range keys {
			keys[i] = gen(rng)
		}
		return sortMatchesReference(t, keys)
	}, &quick.Config{MaxCount: 12})
	if err != nil {
		t.Error(err)
	}
}

// pick returns a generator drawing uniformly from pool.
func pick(pool ...uint64) func(*rand.Rand) uint64 {
	return func(rng *rand.Rand) uint64 { return pool[rng.Intn(len(pool))] }
}

// monotone returns a generator of words stepping from start in direction
// dir by 0, 1 or 2 at a time: sorted (or reverse-sorted) input with runs of
// duplicates, as a mapper that walks its input in key order emits.
func monotone(start uint64, dir int) func(*rand.Rand) uint64 {
	k := start
	return func(rng *rand.Rand) uint64 {
		step := uint64(rng.Intn(3))
		if dir < 0 {
			k -= step
		} else {
			k += step
		}
		return k
	}
}

// randomWords returns n words whose bytes are drawn from a small alphabet,
// so zero bytes, 0xff and shared leading bytes are common.
func randomWords(rng *rand.Rand, n int) []uint64 {
	pool := make([]uint64, n)
	for i := range pool {
		for range 8 {
			pool[i] = pool[i]<<8 | uint64([]byte{0x00, 0x01, 0x7f, 0xff}[rng.Intn(4)])
		}
	}
	return pool
}

// TestRadixOrderMatchesReferenceQuick pins the radix pass to the reference
// order on every kind of buffer.
func TestRadixOrderMatchesReferenceQuick(t *testing.T) {
	byteVaries := func(shift uint) func(*rand.Rand) uint64 {
		return func(rng *rand.Rand) uint64 { return 0x0123456789abcdef&^(0xff<<shift) | uint64(rng.Intn(256))<<shift }
	}
	for name, gen := range map[string]func(*rand.Rand) uint64{
		"heavy duplication":           pick(randomWords(rand.New(rand.NewSource(1)), 12)...),
		"extreme words":               pick(0, 1, math.MaxUint64, math.MaxUint64-1, 1<<63, 1<<63-1),
		"one distinct key":            pick(42),
		"only the top byte varies":    byteVaries(56),
		"only the bottom byte varies": byteVaries(0),
		"only a middle byte varies":   byteVaries(24),
		"ascending":                   monotone(0, 1),
		"descending":                  monotone(math.MaxUint64, -1),
	} {
		t.Run(name, func(t *testing.T) { quickSortOrder(t, gen) })
	}
	t.Run("random masks", func(t *testing.T) {
		mask := uint64(0)
		quickSortOrder(t, func(rng *rand.Rand) uint64 {
			if mask == 0 || rng.Intn(1000) == 0 {
				mask = rng.Uint64() & rng.Uint64()
			}
			return rng.Uint64() & mask
		})
	})
}

// TestRadixSortsEdgeBuffers covers the buffers a random draw rarely hits:
// empty, one entry, and a single key repeated past the small-bucket cutoff.
func TestRadixSortsEdgeBuffers(t *testing.T) {
	for _, keys := range [][]uint64{
		nil,
		{0},
		slices.Repeat([]uint64{0}, 5*radixSmall),
		slices.Repeat([]uint64{math.MaxUint64}, 5*radixSmall),
		slices.Repeat([]uint64{1 << 8, 1, 0}, 5*radixSmall),
	} {
		if !sortMatchesReference(t, keys) {
			t.Errorf("buffer of %d keys %x… sorted out of order", len(keys), keys[:min(len(keys), 3)])
		}
	}
}

// mergeRuns has a spiller write one run per element of runs, in order. The
// value of a key is its run and position, so a merge's value order is
// checkable.
func mergeRuns(t *testing.T, runs [][]uint64) *spiller[uint64, int64] {
	t.Helper()
	s := newSpiller[uint64, int64](wordCodec{}, t.TempDir(), 1<<20)
	t.Cleanup(s.cleanup)
	for r, keys := range runs {
		for i, k := range keys {
			s.buf = append(s.buf, pair[uint64, int64]{k, int64(r)<<32 | int64(i)})
		}
		if err := s.spill(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// referenceMerge is the merge the runs must produce: every distinct key in
// ascending order, its values in run-creation order, and within a run in
// arrival order.
func referenceMerge(runs [][]uint64) ([]uint64, [][]int64) {
	groups := make(map[uint64][]int64)
	for r, keys := range runs {
		for i, k := range keys {
			groups[k] = append(groups[k], int64(r)<<32|int64(i))
		}
	}
	keys := slices.Sorted(maps.Keys(groups))
	vals := make([][]int64, len(keys))
	for i, k := range keys {
		vals[i] = groups[k]
	}
	return keys, vals
}

// checkMerge compares a merge's groups with the reference's.
func checkMerge(t *testing.T, label string, runs [][]uint64, gotK []uint64, gotV [][]int64) {
	t.Helper()
	wantK, wantV := referenceMerge(runs)
	if !slices.Equal(gotK, wantK) {
		t.Errorf("%s: merged keys %x, want %x", label, gotK, wantK)
		return
	}
	for i := range wantK {
		if !slices.Equal(gotV[i], wantV[i]) {
			t.Errorf("%s: key %x has values %x, want %x", label, wantK[i], gotV[i], wantV[i])
		}
	}
}

// shared is the key loserRuns puts in every non-empty run.
const shared = 1 << 63

// loserRuns is a seeded set of n runs: some empty, the zero and all-ones
// words common, one key in every non-empty run, and runs that end on a key
// other runs continue past (their cursors run out in the middle of that
// key's group).
func loserRuns(rng *rand.Rand, n int) [][]uint64 {
	pool := append(randomWords(rng, 8), 0, 1, math.MaxUint64, shared+1)
	runs := make([][]uint64, n)
	for r := range runs {
		if rng.Intn(6) == 0 {
			continue // an empty run
		}
		keys := []uint64{shared}
		for range rng.Intn(40) {
			keys = append(keys, pool[rng.Intn(len(pool))])
		}
		if rng.Intn(2) == 0 {
			// The run's largest key is the shared one: its cursor is
			// exhausted mid-group while later-ending runs hold more.
			keys = slices.DeleteFunc(keys, func(k uint64) bool { return k > shared })
		}
		runs[r] = keys
	}
	return runs
}

// TestLoserTreeMatchesReferenceMerge merges 1, 2, 31, 32 and 33 runs, and
// 64 runs (forcing the compaction passes), through mergeReduce, and the
// same runs through one merger over all of them, against the reference
// merge.
func TestLoserTreeMatchesReferenceMerge(t *testing.T) {
	for _, n := range []int{1, 2, 31, mergeFanIn, mergeFanIn + 1, 2 * mergeFanIn} {
		for seed := int64(0); seed < 4; seed++ {
			label := fmt.Sprintf("%d runs, seed %d", n, seed)
			runs := loserRuns(rand.New(rand.NewSource(seed)), n)

			s := mergeRuns(t, runs)
			var gotK []uint64
			var gotV [][]int64
			distinct, maxIn, err := s.mergeReduce(func(k uint64, vs []int64) bool {
				gotK, gotV = append(gotK, k), append(gotV, slices.Clone(vs))
				return true
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkMerge(t, label+", mergeReduce", runs, gotK, gotV)
			wantMax := 0
			for _, vs := range gotV {
				wantMax = max(wantMax, len(vs))
			}
			if distinct != int64(len(gotK)) || maxIn != int64(wantMax) {
				t.Errorf("%s: mergeReduce reported %d groups, largest %d; saw %d, largest %d", label, distinct, maxIn, len(gotK), wantMax)
			}
			s.cleanup()
			assertNoSpillFiles(t, s.dir)

			s = mergeRuns(t, runs)
			var m merger
			if err := m.reset(s.f, s.runs, s.share); err != nil {
				t.Fatal(err)
			}
			gotK, gotV = nil, nil
			for {
				var vs []int64
				k, ok, err := m.nextGroup(func(vb []byte) error {
					v, err := s.codec.DecodeValue(vb)
					vs = append(vs, v)
					return err
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !ok {
					break
				}
				gotK, gotV = append(gotK, k), append(gotV, vs)
			}
			checkMerge(t, label+", one merger", runs, gotK, gotV)
			s.cleanup()
			assertNoSpillFiles(t, s.dir)
		}
	}
}

// TestLoserTreeRunOrderWithinAKey: a key present in every run hands its
// values over in run-creation order, however the runs' other keys fall and
// however many compaction passes fold them (past mergeFanIn² runs the
// folded runs are folded again), and the zero key sorts first.
func TestLoserTreeRunOrderWithinAKey(t *testing.T) {
	for _, n := range []int{1, 2, 31, mergeFanIn, mergeFanIn + 1, 2 * mergeFanIn, mergeFanIn*mergeFanIn + 40} {
		runs := make([][]uint64, n)
		for r := range runs {
			runs[r] = []uint64{0, shared, shared, math.MaxUint64 >> (r % 12)}
		}
		s := mergeRuns(t, runs)
		var gotK []uint64
		var gotV [][]int64
		if _, _, err := s.mergeReduce(func(k uint64, vs []int64) bool {
			gotK, gotV = append(gotK, k), append(gotV, slices.Clone(vs))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		checkMerge(t, fmt.Sprintf("%d runs", n), runs, gotK, gotV)
		if len(gotK) == 0 || gotK[0] != 0 {
			t.Errorf("%d runs: first merged key %x, want the zero key", n, gotK[:min(len(gotK), 1)])
		}
	}
}
