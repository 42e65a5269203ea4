package mapreduce

import "fmt"

// DistFilter restricts one engine run to a subset of the distributed key
// space. The key space is cut into Partitions slices by hashing each key's
// codec encoding (KeyPartition); a mapper emission whose key falls outside
// the Owned slices is dropped before it is counted or shipped.
// Because the partition of a key depends only on its encoded bytes, every
// process that runs the same job with the same total partition count cuts
// the key space identically — N workers with disjoint Owned sets together
// ship exactly the pairs one unfiltered run ships, each pair exactly once.
// This is the seam the distributed executor (internal/distrib) builds on:
// each worker replays the full map phase locally and keeps only its share,
// so no cross-worker shuffle channel is needed and a lost worker's share
// can be recomputed anywhere.
//
// The filter requires the job's key encoding to be deterministic across
// processes. The job's Codec, or DefaultCodec's big-endian integer and
// encoding/binary encodings, satisfy this; the engine's internal partition
// hash does not (its maphash seed is per-process), which is why ownership
// hashes encoded bytes instead of reusing it.
type DistFilter struct {
	// Partitions is the total number of distributed key-space slices,
	// identical across every cooperating process.
	Partitions int
	// Owned flags the slices this run keeps; len(Owned) == Partitions.
	Owned []bool
}

// NewDistFilter builds a filter owning the given slice indices out of total.
// Invalid input (non-positive total, index out of range) yields a filter
// that fails validate rather than panicking — worker processes build
// filters from wire-decoded job requests, and a corrupt request must turn
// into a job error, not a crash.
func NewDistFilter(total int, owned []int) *DistFilter {
	if total <= 0 {
		return &DistFilter{}
	}
	d := &DistFilter{Partitions: total, Owned: make([]bool, total)}
	for _, p := range owned {
		if p < 0 || p >= total {
			return &DistFilter{}
		}
		d.Owned[p] = true
	}
	return d
}

func (d *DistFilter) validate() error {
	if d.Partitions <= 0 {
		return fmt.Errorf("mapreduce: DistFilter.Partitions must be positive, got %d", d.Partitions)
	}
	if len(d.Owned) != d.Partitions {
		return fmt.Errorf("mapreduce: DistFilter.Owned has %d entries, want %d", len(d.Owned), d.Partitions)
	}
	return nil
}

// KeyPartition maps an encoded reducer key to its distributed key-space
// slice: FNV-1a over the bytes, modulo partitions. It is the one hash every
// cooperating process must agree on, so it is fixed here rather than
// pluggable.
func KeyPartition(key []byte, partitions int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(partitions))
}

// distOwns builds a per-goroutine ownership predicate for one job run. Each
// map worker gets its own instance (the scratch buffer is not shared).
func distOwns[K comparable](d *DistFilter, codec KeyCodec[K]) func(K) bool {
	var buf []byte
	return func(k K) bool {
		buf = codec.AppendKey(buf[:0], k)
		return d.Owned[KeyPartition(buf, d.Partitions)]
	}
}
