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

// ClassCountsMR computes the orientation classes of C_p and their sizes on
// the map-reduce engine: the 2^(p-2) valid strings are enumerated in
// parallel shards, each mapped to (canonical representative, 1), and a
// counting combiner collapses every shard's pairs before the shuffle — so
// the communication cost is bounded by classes × shards rather than by the
// number of valid strings. Classes come back sorted by orientation,
// matching CanonicalOrientations(p); the metrics expose the combiner's
// savings. Cancelling ctx aborts the job and returns ctx.Err().
func ClassCountsMR(ctx context.Context, p int, cfg mapreduce.Config) ([]ClassCount, mapreduce.Metrics, error) {
	if p < 3 {
		panic(fmt.Sprintf("cycles: need p >= 3, got %d", p))
	}
	// Shard the bits space 0..2^p across several spans per worker.
	type span struct{ lo, hi int }
	total := 1 << p
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	shards := 4 * par
	if shards > total {
		shards = total
	}
	step := (total + shards - 1) / shards
	var spans []span
	for lo := 0; lo < total; lo += step {
		hi := lo + step
		if hi > total {
			hi = total
		}
		spans = append(spans, span{lo, hi})
	}

	classes, m, err := mapreduce.Job[span, string, int64, ClassCount]{
		Name: fmt.Sprintf("orientation classes of C%d", p),
		Map: func(s span, emit func(string, int64)) {
			b := make([]byte, p)
			for bits := s.lo; bits < s.hi; bits++ {
				for i := 0; i < p; i++ {
					if bits&(1<<i) != 0 {
						b[i] = 'u'
					} else {
						b[i] = 'd'
					}
				}
				str := string(b)
				if valid(str) {
					emit(Canon(str), 1)
				}
			}
		},
		Combine: mapreduce.SumCombiner[string],
		Reduce: func(ctx *mapreduce.Context, canon string, counts []int64, emit func(ClassCount)) {
			var sum int64
			for _, c := range counts {
				sum += c
			}
			ctx.AddWork(int64(len(counts)))
			emit(ClassCount{Orientation: canon, Members: int(sum)})
		},
	}.RunContext(ctx, cfg, spans)
	if err != nil {
		return nil, m, err
	}

	sort.Slice(classes, func(i, j int) bool {
		return classes[i].Orientation < classes[j].Orientation
	})
	return classes, m, nil
}
