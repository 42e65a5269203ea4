package graph

import (
	"errors"
	"fmt"
)

// This file is the one place that knows what a reducer key looks like.
// Every share-hashed job — the three Section 4 strategies and the
// Theorem 6.1 conversion in package core, the three Section 2 triangle
// algorithms, the directed extension — hashes nodes to buckets with a
// NodeHash, keys its reducers by a BucketKey and encodes them with an
// EdgeKeyCodec. The format, its two limits, the Section 4.5 replication
// scheme and the wire encoding live here and nowhere else.

const (
	// MaxBuckets is the largest bucket count (or per-variable share) a job
	// may hash into: a bucket number must fit one byte of a BucketKey.
	MaxBuckets = 255
	// MaxKeyVars is the number of lanes in a BucketKey, hence the largest
	// sample or pattern (in nodes) a share-hashed job can enumerate.
	MaxKeyVars = 16
)

// BucketKey names one reducer: a fixed-width tuple of bucket numbers, one
// byte per lane. In a share job (and Multiway) lane v is the bucket of
// variable v; in a multiset job (bucket-oriented — Section 2.3's triangle
// algorithm among them — decomposed, Partition, directed) lane v is the v-th
// smallest bucket.
// Lanes beyond the job's arity are zero, so == on two keys of one job is
// equality of their tuples.
type BucketKey [MaxKeyVars]byte

// CheckKey reports whether a job with vars key lanes hashing into at most
// buckets buckets per lane fits a BucketKey. Every job and load probe
// validates through it before it builds a mapper, so nothing downstream
// ever sees a bucket that would wrap or a lane that does not exist.
func CheckKey(vars, buckets int) error {
	if vars > MaxKeyVars {
		return fmt.Errorf("%d nodes exceed the reducer key's %d-node limit", vars, MaxKeyVars)
	}
	if buckets < 1 || buckets > MaxBuckets {
		return fmt.Errorf("bucket count %d outside [1, %d]", buckets, MaxBuckets)
	}
	return nil
}

// errBucketRange is what a key constructor panics with (a ready-made value,
// so the hot paths that can raise it box nothing).
var errBucketRange = errors.New("graph: bucket does not fit a reducer-key lane")

// Set stores bucket in lane v. CheckKey admits no bucket over MaxBuckets,
// so one here is a programming error: it panics rather than wrap.
//
//lint:hotpath
func (k *BucketKey) Set(v, bucket int) {
	if uint(bucket) > MaxBuckets {
		panic(errBucketRange)
	}
	k[v] = byte(bucket)
}

// insert places bucket among the first n lanes, which are nondecreasing,
// keeping them so.
//
//lint:hotpath
func (k *BucketKey) insert(n, bucket int) {
	for n > 0 && int(k[n-1]) > bucket {
		k[n] = k[n-1]
		n--
	}
	k.Set(n, bucket)
}

// MultisetKey returns the key of a bucket multiset: the buckets in
// nondecreasing order. It is how a multiset job's reducer recognises the
// matches it owns — the key of the match's node buckets equals its own.
//
//lint:hotpath
func MultisetKey(buckets ...int) BucketKey {
	var k BucketKey
	for n, b := range buckets {
		k.insert(n, b)
	}
	return k
}

// PairBlocks is the number of blocks a multiset job over b buckets stores
// its edges in: one per unordered bucket pair.
func PairBlocks(b int) int { return b * (b + 1) / 2 }

// PairBlock is the block of an edge whose endpoints hash to hu and hv, in
// either order: every such edge reaches the same reducers, so a multiset
// job stores it once, there, and each reducer reads the blocks its key
// covers (MultisetKeys). Pairs are numbered row by row, lo ≤ hi.
//
//lint:hotpath
func PairBlock(b, hu, hv int) int {
	lo, hi := min(hu, hv), max(hu, hv)
	if lo < 0 || hi >= b {
		panic(errBucketRange)
	}
	return lo*b - lo*(lo-1)/2 + hi - lo
}

// MultisetKeys is the Section 4.5 replication, read from the reducer's
// side: it calls yield with every bucket multiset of size p over b buckets
// — the C(b+p-1, p) nondecreasing tuples, in lexicographic order — and the
// pair blocks that key covers, each once: {x, y} for every two distinct
// buckets of the key, and the diagonal {x, x} for every bucket it holds
// twice or more. An edge with endpoint buckets hu, hv must reach exactly
// the multisets that contain hu and hv; those are the keys whose list
// holds PairBlock(b, hu, hv), C(b+p-3, p-2) of them. The blocks slice is
// reused between calls. The caller has passed (p, b) through CheckKey.
func MultisetKeys(p, b int, yield func(key BucketKey, blocks []int32)) {
	var k BucketKey // lanes 0..p-1: the current nondecreasing tuple
	blocks := make([]int32, 0, p*(p-1)/2+1)
	for {
		blocks = blocks[:0]
		for i := 0; i < p; i++ {
			x := int(k[i])
			if i > 0 && k[i-1] == k[i] {
				// A repeat: the diagonal block, at the second occurrence only.
				if i == 1 || k[i-2] != k[i] {
					blocks = append(blocks, int32(PairBlock(b, x, x)))
				}
				continue
			}
			// A new bucket pairs with each distinct bucket before it.
			for j := 0; j < i; j++ {
				if j == 0 || k[j-1] != k[j] {
					blocks = append(blocks, int32(PairBlock(b, int(k[j]), x)))
				}
			}
		}
		yield(k, blocks)
		// Advance the rightmost lane that can still grow; the lanes after
		// it restart at its new value.
		i := p - 1
		for i >= 0 && int(k[i]) == b-1 {
			i--
		}
		if i < 0 {
			return
		}
		for w := k[i] + 1; i < p; i++ {
			k[i] = w
		}
	}
}

// EdgeKeyCodec is the key codec of a share-hashed job keyed by P-lane
// BucketKeys: the encoding the distributed key-space slices hash. A key
// encodes as exactly its P meaningful bytes — injective because the other
// lanes are zero, and as short as the format allows.
type EdgeKeyCodec struct{ P int }

//lint:hotpath
func (c EdgeKeyCodec) AppendKey(dst []byte, k BucketKey) []byte { return append(dst, k[:c.P]...) }
