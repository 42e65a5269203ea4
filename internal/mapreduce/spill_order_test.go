package mapreduce

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// sortMatchesComparator fills a spiller with keys, sorts it with sortBuf
// and reports whether the result is exactly the order the comparator sort
// gives the same entries from a shuffled start.
func sortMatchesComparator[K comparable](t *testing.T, codec Codec[K, int64], keys []K, rng *rand.Rand) bool {
	t.Helper()
	s := newSpiller(codec, t.TempDir(), 1<<20)
	for i, k := range keys {
		s.buf = append(s.buf, pair[K, int64]{k, int64(i)})
	}
	if err := s.sortBuf(); err != nil {
		t.Fatal(err)
	}
	if len(s.ents) != len(keys) {
		t.Errorf("sortBuf kept %d of %d entries", len(s.ents), len(keys))
		return false
	}
	ref := slices.Clone(s.ents)
	rng.Shuffle(len(ref), func(i, j int) { ref[i], ref[j] = ref[j], ref[i] })
	slices.SortFunc(ref, s.compare)
	if !slices.Equal(s.ents, ref) {
		for i := range ref {
			if s.ents[i] != ref[i] {
				t.Errorf("%d keys: entry %d is %+v, the comparator sort puts %+v there", len(keys), i, s.ents[i], ref[i])
				break
			}
		}
		return false
	}
	return true
}

// quickSortOrder checks sortMatchesComparator on seeded buffers of up to a
// few thousand keys drawn from gen, so the radix pass recurses past its
// small-bucket cutoff.
func quickSortOrder[K comparable](t *testing.T, codec Codec[K, int64], gen func(*rand.Rand) K) {
	t.Helper()
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]K, rng.Intn(3000))
		for i := range keys {
			keys[i] = gen(rng)
		}
		return sortMatchesComparator(t, codec, keys, rng)
	}, &quick.Config{MaxCount: 12})
	if err != nil {
		t.Error(err)
	}
}

// pick returns a generator drawing uniformly from pool.
func pick(pool ...string) func(*rand.Rand) string {
	return func(rng *rand.Rand) string { return pool[rng.Intn(len(pool))] }
}

// randomKeys returns n distinct-ish keys of 0..maxLen bytes over a small
// alphabet, so zero bytes, 0xff and shared prefixes are common.
func randomKeys(rng *rand.Rand, n, maxLen int) []string {
	pool := make([]string, n)
	for i := range pool {
		b := make([]byte, rng.Intn(maxLen+1))
		for j := range b {
			b[j] = "\x00\x01\x7f\xff"[rng.Intn(4)]
		}
		pool[i] = string(b)
	}
	return pool
}

// TestRadixOrderMatchesComparatorQuick pins the radix pass to the
// comparator: on every kind of buffer, sortBuf's order is exactly
// slices.SortFunc(ents, compare)'s.
func TestRadixOrderMatchesComparatorQuick(t *testing.T) {
	byte8 := func(fixed string, at int) func(*rand.Rand) string {
		return func(rng *rand.Rand) string {
			b := []byte(fixed)
			b[at] = byte(rng.Intn(256))
			return string(b)
		}
	}
	for name, gen := range map[string]func(*rand.Rand) string{
		"short keys, heavy duplication": pick(randomKeys(rand.New(rand.NewSource(1)), 12, keyPrefixLen)...),
		"zero-padded prefixes":          pick("", "ab", "ab\x00", "ab\x00\x00", "\x00", "a", "ab\x00\x00\x00\x00\x00\x00"),
		"one distinct key":              pick("k"),
		"only the top byte varies":      byte8("01234567", 0),
		"only the bottom byte varies":   byte8("01234567", keyPrefixLen-1),
		"one long key mixed in":         pick(append(randomKeys(rand.New(rand.NewSource(2)), 20, keyPrefixLen), "ab\x00\x00\x00\x00\x00\x00-long")...),
		"long keys sharing the prefix":  pick("", "ab", "abcdefgh", "abcdefgh\x00", "abcdefghz", "abcdefgha", "abcdefgh\xff\x00"),
	} {
		t.Run(name, func(t *testing.T) { quickSortOrder(t, stringCodec{}, gen) })
	}
	t.Run("word keys under random masks", func(t *testing.T) {
		mask := uint64(0)
		quickSortOrder(t, wordCodec{}, func(rng *rand.Rand) uint64 {
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
	rng := rand.New(rand.NewSource(3))
	for _, keys := range [][]string{
		nil,
		{""},
		slices.Repeat([]string{""}, 5*radixSmall),
		slices.Repeat([]string{"same"}, 5*radixSmall),
		slices.Repeat([]string{"ab\x00", "ab", ""}, 5*radixSmall),
	} {
		if !sortMatchesComparator(t, stringCodec{}, keys, rng) {
			t.Errorf("buffer of %d keys %q… sorted out of order", len(keys), keys[:min(len(keys), 3)])
		}
	}
}

// mergeRuns writes one run file per element of runs, in order, from a
// string-keyed spiller. The value of a key is its run and position, so a
// merge's value order is checkable.
func mergeRuns(t *testing.T, runs [][]string) *spiller[string, int64] {
	t.Helper()
	s := newSpiller[string, int64](stringCodec{}, t.TempDir(), 1<<20)
	t.Cleanup(s.cleanup)
	for r, keys := range runs {
		for i, k := range keys {
			s.buf = append(s.buf, pair[string, int64]{k, int64(r)<<32 | int64(i)})
		}
		if err := s.spill(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// referenceMerge is the merge the runs must produce: every distinct key in
// byte order, its values in run-creation order, and within a run in
// arrival order.
func referenceMerge(runs [][]string) ([]string, [][]int64) {
	groups := make(map[string][]int64)
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
func checkMerge(t *testing.T, label string, runs [][]string, gotK []string, gotV [][]int64) {
	t.Helper()
	wantK, wantV := referenceMerge(runs)
	if !slices.Equal(gotK, wantK) {
		t.Errorf("%s: merged keys %q, want %q", label, gotK, wantK)
		return
	}
	for i := range wantK {
		if !slices.Equal(gotV[i], wantV[i]) {
			t.Errorf("%s: key %q has values %x, want %x", label, wantK[i], gotV[i], wantV[i])
		}
	}
}

// loserRuns is a seeded set of n runs: some empty, the empty key and keys
// past the prefix length common, one key in every non-empty run, and runs
// that end on a key other runs continue past (their cursors run out in
// the middle of that key's group).
func loserRuns(rng *rand.Rand, n int) [][]string {
	pool := append(randomKeys(rng, 8, 12), "", "ab", "ab\x00", "abcdefgh-long", "abcdefgh-lone")
	runs := make([][]string, n)
	for r := range runs {
		if rng.Intn(6) == 0 {
			continue // an empty run
		}
		keys := []string{"in-every-run"}
		for range rng.Intn(40) {
			keys = append(keys, pool[rng.Intn(len(pool))])
		}
		if rng.Intn(2) == 0 {
			// The run's largest key is the shared one: its cursor is
			// exhausted mid-group while later-ending runs hold more.
			keys = slices.DeleteFunc(keys, func(k string) bool { return k > "in-every-run" })
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
			var gotK []string
			var gotV [][]int64
			distinct, maxIn, err := s.mergeReduce(func(k string, vs []int64) bool {
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
			assertNoSpillFiles(t, s.dir)

			s = mergeRuns(t, runs)
			m, err := newMerger(s.paths, s.share)
			if err != nil {
				t.Fatal(err)
			}
			s.paths = nil
			gotK, gotV = nil, nil
			for {
				var vs []int64
				kb, ok, err := m.nextGroup(func(vb []byte) error {
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
				gotK, gotV = append(gotK, string(kb)), append(gotV, vs)
			}
			m.close()
			checkMerge(t, label+", one merger", runs, gotK, gotV)
			assertNoSpillFiles(t, s.dir)
		}
	}
}

// TestLoserTreeRunOrderWithinAKey: a key present in every run hands its
// values over in run-creation order, however the runs' other keys fall and
// however many compaction passes fold them (past mergeFanIn² runs the
// folded runs are folded again), and the empty key sorts first.
func TestLoserTreeRunOrderWithinAKey(t *testing.T) {
	for _, n := range []int{1, 2, 31, mergeFanIn, mergeFanIn + 1, 2 * mergeFanIn, mergeFanIn*mergeFanIn + 40} {
		runs := make([][]string, n)
		for r := range runs {
			runs[r] = []string{"", "k", "k", strings.Repeat("z", r%12)}
		}
		s := mergeRuns(t, runs)
		var gotK []string
		var gotV [][]int64
		if _, _, err := s.mergeReduce(func(k string, vs []int64) bool {
			gotK, gotV = append(gotK, k), append(gotV, slices.Clone(vs))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		checkMerge(t, fmt.Sprintf("%d runs", n), runs, gotK, gotV)
		if len(gotK) == 0 || gotK[0] != "" {
			t.Errorf("%d runs: first merged key %q, want the empty key", n, gotK[:min(len(gotK), 1)])
		}
	}
}
