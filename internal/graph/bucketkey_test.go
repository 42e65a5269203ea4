package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// binomial is C(n, k), written out so the tests hold the loop to the closed
// form itself rather than to another package's copy of it.
func binomial(n, k int) int {
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
	}
	return c
}

// Completions is the Section 4.5 replication loop as the mappers ran it
// before replication went by reference — kept as the reference MultisetKeys
// is tested against: it calls emit with the key of every bucket multiset of
// size p over b buckets that contains hu and hv — the reducers an edge with
// endpoint buckets hu, hv must reach so that the owner of every instance
// through it sees it. The p-2 free buckets run over the nondecreasing
// tuples in lexicographic order; distinct tuples stay distinct multisets
// once the fixed pair is merged in, so the C(b+p-3, p-2) keys need no
// dedup.
func Completions(p, b, hu, hv int, emit func(BucketKey)) {
	n := p - 2
	var free BucketKey // lanes 0..n-1: the current nondecreasing completion
	for {
		k := free
		k.insert(n, hu)
		k.insert(n+1, hv)
		emit(k)
		// Advance the rightmost lane that can still grow; the lanes after
		// it restart at its new value.
		i := n - 1
		for i >= 0 && int(free[i]) == b-1 {
			i--
		}
		if i < 0 {
			return
		}
		for w := free[i] + 1; i < n; i++ {
			free[i] = w
		}
	}
}

func completions(p, b, hu, hv int) []BucketKey {
	var keys []BucketKey
	Completions(p, b, hu, hv, func(k BucketKey) { keys = append(keys, k) })
	return keys
}

// TestCompletions: for every small (p, b, hu, hv) the Section 4.5 loop emits
// exactly C(b+p-3, p-2) keys, all distinct, each a nondecreasing p-multiset
// over the b buckets that contains hu and hv with multiplicity, zero beyond
// lane p.
func TestCompletions(t *testing.T) {
	for p := 2; p <= 6; p++ {
		for b := 1; b <= 5; b++ {
			for hu := 0; hu < b; hu++ {
				for hv := 0; hv < b; hv++ {
					keys := completions(p, b, hu, hv)
					if want := binomial(b+p-3, p-2); len(keys) != want {
						t.Fatalf("p=%d b=%d (%d,%d): %d keys, want C(%d,%d) = %d", p, b, hu, hv, len(keys), b+p-3, p-2, want)
					}
					seen := map[BucketKey]bool{}
					for _, k := range keys {
						if seen[k] {
							t.Fatalf("p=%d b=%d (%d,%d): key %v emitted twice", p, b, hu, hv, k)
						}
						seen[k] = true
						if !slices.IsSorted(k[:p]) || int(k[p-1]) >= b {
							t.Fatalf("p=%d b=%d (%d,%d): key %v is not a nondecreasing tuple over the buckets", p, b, hu, hv, k)
						}
						if !bytes.Equal(k[p:], make([]byte, MaxKeyVars-p)) {
							t.Fatalf("p=%d: key %v is not zero beyond lane %d", p, k, p)
						}
						// Taking hu and then hv out must leave p-2 buckets.
						rest := slices.Clone(k[:p])
						for _, h := range []int{hu, hv} {
							i := slices.Index(rest, byte(h))
							if i < 0 {
								t.Fatalf("p=%d b=%d: key %v does not contain the pair (%d,%d)", p, b, k, hu, hv)
							}
							rest = slices.Delete(rest, i, i+1)
						}
					}
				}
			}
		}
	}
}

// TestMultisetKeysInvertCompletions: the keys whose block list holds the
// block of (hu, hv) are exactly the keys the per-edge loop emitted for an
// edge with those buckets — same set, so same communication, key by key;
// every key lists a block once; and the walk visits C(b+p-1, p) keys.
func TestMultisetKeysInvertCompletions(t *testing.T) {
	for p := 2; p <= 6; p++ {
		for b := 1; b <= 5; b++ {
			covering := make([]map[BucketKey]bool, PairBlocks(b)) // block → keys covering it
			for i := range covering {
				covering[i] = map[BucketKey]bool{}
			}
			keys := 0
			MultisetKeys(p, b, func(k BucketKey, blocks []int32) {
				keys++
				if !slices.IsSorted(k[:p]) || int(k[p-1]) >= b || !bytes.Equal(k[p:], make([]byte, MaxKeyVars-p)) {
					t.Fatalf("p=%d b=%d: key %v is not a nondecreasing p-tuple over the buckets", p, b, k)
				}
				for _, blk := range blocks {
					if covering[blk][k] {
						t.Fatalf("p=%d b=%d: key %v lists block %d twice (or is visited twice)", p, b, k, blk)
					}
					covering[blk][k] = true
				}
			})
			if want := binomial(b+p-1, p); keys != want {
				t.Fatalf("p=%d b=%d: %d keys, want C(%d,%d) = %d", p, b, keys, b+p-1, p, want)
			}
			for hu := 0; hu < b; hu++ {
				for hv := 0; hv < b; hv++ {
					got := covering[PairBlock(b, hu, hv)]
					want := completions(p, b, hu, hv)
					if len(got) != len(want) {
						t.Fatalf("p=%d b=%d (%d,%d): %d keys cover the block, the loop reached %d", p, b, hu, hv, len(got), len(want))
					}
					for _, k := range want {
						if !got[k] {
							t.Fatalf("p=%d b=%d (%d,%d): key %v reached by the loop does not cover the block", p, b, hu, hv, k)
						}
					}
				}
			}
		}
	}
}

// TestOwnerKeyReachedByEveryEdge is the premise of Theorem 4.2's
// exactly-once argument: whatever p distinct nodes an instance binds, the
// key of their bucket multiset — the one reducer that owns the instance —
// is among the keys emitted for each pair of them, so the owner sees every
// edge the instance could have.
func TestOwnerKeyReachedByEveryEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := 2 + rng.Intn(5)
		h := NodeHash{Seed: rng.Uint64(), B: 1 + rng.Intn(6)}
		nodes := rng.Perm(1000)[:p] // injective
		buckets := make([]int, p)
		for i, u := range nodes {
			buckets[i] = h.Bucket(Node(u))
		}
		owner := MultisetKey(buckets...)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j && !slices.Contains(completions(p, h.B, buckets[i], buckets[j]), owner) {
					t.Fatalf("p=%d b=%d buckets %v: owner %v not reached by the edge between nodes %d and %d",
						p, h.B, buckets, owner, i, j)
				}
			}
		}
	}
}

// TestMultisetKeyPermutationInvariant: the key depends on the multiset
// only, and is its sorted bytes.
func TestMultisetKeyPermutationInvariant(t *testing.T) {
	err := quick.Check(func(raw []byte, seed int64) bool {
		raw = raw[:min(len(raw), MaxKeyVars)]
		buckets := make([]int, len(raw))
		for i, b := range raw {
			buckets[i] = int(b)
		}
		want := MultisetKey(buckets...)
		rand.New(rand.NewSource(seed)).Shuffle(len(buckets), func(i, j int) {
			buckets[i], buckets[j] = buckets[j], buckets[i]
		})
		slices.Sort(raw)
		return MultisetKey(buckets...) == want && bytes.Equal(want[:len(raw)], raw)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestKeyLimits: CheckKey states the two limits, and a bucket that would
// wrap a lane panics in every constructor instead of truncating.
func TestKeyLimits(t *testing.T) {
	for _, tc := range []struct {
		vars, buckets int
		ok            bool
	}{
		{2, 1, true}, {MaxKeyVars, MaxBuckets, true},
		{MaxKeyVars + 1, 4, false}, {3, MaxBuckets + 1, false}, {3, 0, false},
	} {
		if err := CheckKey(tc.vars, tc.buckets); (err == nil) != tc.ok {
			t.Errorf("CheckKey(%d, %d) = %v, want ok=%v", tc.vars, tc.buckets, err, tc.ok)
		}
	}
	for name, build := range map[string]func(){
		"Set":         func() { new(BucketKey).Set(0, 256) },
		"MultisetKey": func() { MultisetKey(1, 256, 2) },
		"Completions": func() { Completions(3, 4, 0, 256, func(BucketKey) {}) },
		"PairBlock":   func() { PairBlock(4, 0, 4) },
		"negative":    func() { MultisetKey(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a bucket outside a lane did not panic", name)
				}
			}()
			build()
		}()
	}
}

// TestEdgeKeyCodec: a key encodes as exactly its P bucket bytes — what the
// string keys this format replaced encoded as, so the distributed key-space
// slices did not move — and appending into a reused buffer does not
// allocate.
func TestEdgeKeyCodec(t *testing.T) {
	c := EdgeKeyCodec{P: 4}
	key := MultisetKey(3, 0, 254, 3)
	kb := c.AppendKey(nil, key)
	if !bytes.Equal(kb, []byte{0, 3, 3, 254}) {
		t.Fatalf("key bytes %v, want the four buckets", kb)
	}
	dst := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { dst = c.AppendKey(dst[:0], key) }); allocs != 0 {
		t.Errorf("key encode allocates: %v allocs/run", allocs)
	}
}
