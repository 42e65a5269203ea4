package mapreduce

import "sync"

// runBarrier executes one map-reduce round with the engine's original
// global-barrier shuffle: every mapper builds a private key→values map, all
// partial maps are merged into one global grouping after the last mapper
// finishes, and only then does the reduce phase start. It reports the same
// metrics as the pipelined Run for any job, which makes it the reference
// TestPipelinedMatchesBarrier compares the engine against and the baseline
// arm of BenchmarkPipelinedVsBarrier: its peak memory
// scales with the total communication cost and its reducers idle until the
// map phase fully completes.
func runBarrier[I any, K comparable, V any, O any](
	cfg Config,
	inputs []I,
	mapFn Mapper[I, K, V],
	reduceFn Reducer[K, V, O],
) ([]O, Metrics) {
	nw := cfg.workers()
	if nw > len(inputs) && len(inputs) > 0 {
		nw = len(inputs)
	}
	if nw < 1 {
		nw = 1
	}

	// Map phase: each worker owns a contiguous shard of the inputs and
	// builds a private partial shuffle (key → values).
	partials := make([]map[K][]V, nw)
	pairCounts := make([]int64, nw)
	var wg sync.WaitGroup
	chunk := (len(inputs) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(inputs) {
			hi = len(inputs)
		}
		if lo >= hi {
			partials[w] = map[K][]V{}
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			local := make(map[K][]V)
			var pairs int64
			emit := func(k K, v V) {
				local[k] = append(local[k], v)
				pairs++
			}
			for i := lo; i < hi; i++ {
				mapFn(inputs[i], emit)
			}
			partials[w] = local
			pairCounts[w] = pairs
		}(w, lo, hi)
	}
	wg.Wait()

	// Shuffle: merge the partial groupings behind the barrier.
	groups := make(map[K][]V)
	var metrics Metrics
	for w := 0; w < nw; w++ {
		metrics.KeyValuePairs += pairCounts[w]
		for k, vs := range partials[w] {
			groups[k] = append(groups[k], vs...)
		}
		partials[w] = nil
	}
	metrics.DistinctKeys = int64(len(groups))

	// Reduce phase: distribute keys over workers.
	keys := make([]K, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
		if n := int64(len(groups[k])); n > metrics.MaxReducerInput {
			metrics.MaxReducerInput = n
		}
	}
	rw := cfg.workers()
	if rw > len(keys) && len(keys) > 0 {
		rw = len(keys)
	}
	if rw < 1 {
		rw = 1
	}
	outs := make([][]O, rw)
	works := make([]int64, rw)
	kchunk := (len(keys) + rw - 1) / rw
	for w := 0; w < rw; w++ {
		lo := w * kchunk
		hi := lo + kchunk
		if hi > len(keys) {
			hi = len(keys)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []O
			ctx := &Context{}
			emit := func(o O) { out = append(out, o) }
			for i := lo; i < hi; i++ {
				k := keys[i]
				reduceFn(ctx, k, groups[k], emit)
			}
			outs[w] = out
			works[w] = ctx.work
		}(w, lo, hi)
	}
	wg.Wait()

	var result []O
	for w := 0; w < rw; w++ {
		result = append(result, outs[w]...)
		metrics.ReducerWork += works[w]
	}
	metrics.Outputs = int64(len(result))
	return result, metrics
}
