package cycles

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"subgraphmr/internal/mapreduce"
)

// ClassCount is one orientation class of C_p with its member count.
type ClassCount struct {
	// Orientation is the canonical u/d string of the class.
	Orientation string
	// Members is the number of valid strings in the class.
	Members int
}

// maxClassCountsP is the longest cycle ClassCountsMR accepts: its bits space
// 0..2^p must fit an int, and an orientation its uint64 reducer key.
const maxClassCountsP = 62

// span is one map input of ClassCountsMR: the bit strings lo ≤ bits < hi.
type span struct{ lo, hi int }

// spans shards the bits space 0..2^p into at most four spans per map worker.
func spans(p, parallelism int) []span {
	total := 1 << p
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	step := (total + 4*parallelism - 1) / (4 * parallelism)
	var out []span
	for lo := 0; lo < total; lo += step {
		out = append(out, span{lo, min(lo+step, total)})
	}
	return out
}

// ClassCountsMR computes the orientation classes of C_p and their sizes on
// the map-reduce engine: the 2^(p-2) valid strings are enumerated in
// parallel spans, and each span's mapper counts the classes it meets and
// emits one (class, partial count) pair per class — so the communication
// cost is at most classes × spans rather than the number of valid strings.
// A class travels as its canonical u/d string packed into a uint64 (bit i
// set for a 'u'). Classes come back sorted by orientation, matching
// CanonicalOrientations(p). p must lie in [3, 62]; cancelling ctx aborts
// the job and returns ctx.Err().
func ClassCountsMR(ctx context.Context, p int, cfg mapreduce.Config) ([]ClassCount, mapreduce.Metrics, error) {
	if p < 3 || p > maxClassCountsP {
		return nil, mapreduce.Metrics{}, fmt.Errorf("cycles: orientation classes need 3 <= p <= %d, got %d", maxClassCountsP, p)
	}
	var classes []ClassCount
	m, err := mapreduce.Job[span, uint64, int64, ClassCount]{
		Name: fmt.Sprintf("orientation classes of C%d", p),
		Map: func(s span, emit func(uint64, int64)) {
			counts := make(map[uint64]int64)
			b := make([]byte, p)
			for bits := s.lo; bits < s.hi; bits++ {
				if str := orientation(uint64(bits), b); valid(str) {
					counts[packOrientation(Canon(str))]++
				}
			}
			for class, n := range counts {
				emit(class, n)
			}
		},
		Reduce: func(ctx *mapreduce.Context, class uint64, counts []int64, emit func(ClassCount)) {
			var sum int64
			for _, c := range counts {
				sum += c
			}
			ctx.AddWork(int64(len(counts)))
			emit(ClassCount{Orientation: orientation(class, make([]byte, p)), Members: int(sum)})
		},
	}.RunStream(ctx, cfg, spans(p, cfg.Parallelism), func(c ClassCount) bool {
		classes = append(classes, c)
		return true
	})
	if err != nil {
		return nil, m, err
	}
	sort.Slice(classes, func(i, j int) bool {
		return classes[i].Orientation < classes[j].Orientation
	})
	return classes, m, nil
}

// orientation spells the len(b) low bits of x as a u/d string, 'u' where
// bit i is set, using b as scratch; packOrientation inverts it.
func orientation(x uint64, b []byte) string {
	for i := range b {
		b[i] = "du"[x>>i&1]
	}
	return string(b)
}

// packOrientation packs a u/d string into a uint64, bit i set for a 'u'.
func packOrientation(s string) uint64 {
	var x uint64
	for i := 0; i < len(s); i++ {
		if s[i] == 'u' {
			x |= 1 << i
		}
	}
	return x
}
