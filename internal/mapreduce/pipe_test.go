package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"subgraphmr/internal/failpoint"
)

// pipeBed is a two-round pipe over the integers 0..n-1. Round 1 groups them
// by residue mod 7 and hands each on as (residue, x); round 2 keys that by
// x mod 5 and sums the residues, with side marking every input once more
// under the same key, worth 100.
type pipeBed struct {
	n      int
	round1 Job[int64, int64, int64, [2]int64]
	round2 Job[[2]int64, int64, int64, string]
	side   Mapper[int64, int64, int64]
}

func newPipeBed(n int) *pipeBed {
	return &pipeBed{
		n: n,
		round1: Job[int64, int64, int64, [2]int64]{
			Name: "residues",
			Map:  func(x int64, emit func(int64, int64)) { emit(x%7, x) },
			Reduce: func(_ *Context, r int64, xs []int64, emit func([2]int64)) {
				for _, x := range xs {
					emit([2]int64{r, x})
				}
			},
		},
		round2: Job[[2]int64, int64, int64, string]{
			Name: "sums",
			Map:  func(rx [2]int64, emit func(int64, int64)) { emit(rx[1]%5, rx[0]) },
			Reduce: func(ctx *Context, k int64, vs []int64, emit func(string)) {
				var sum int64
				for _, v := range vs {
					sum += v
				}
				ctx.AddWork(int64(len(vs)))
				emit(fmt.Sprintf("%d:%d", k, sum))
			},
		},
		side: func(x int64, emit func(int64, int64)) { emit(x%5, 100) },
	}
}

func (b *pipeBed) inputs() []int64 {
	in := make([]int64, b.n)
	for i := range in {
		in[i] = int64(i)
	}
	return in
}

// want is the round-2 output set, computed serially.
func (b *pipeBed) want() []string {
	sums := map[int64]int64{}
	for x := int64(0); x < int64(b.n); x++ {
		sums[x%5] += x%7 + 100
	}
	var out []string
	for k, s := range sums {
		out = append(out, fmt.Sprintf("%d:%d", k, s))
	}
	sort.Strings(out)
	return out
}

// run pipes the bed under cfg, collecting round 2's outputs.
func (b *pipeBed) run(ctx context.Context, cfg Config) ([]string, [2]RoundStats, error) {
	var out []string
	rounds, err := RunPipe(ctx, cfg, b.round1, b.inputs(), b.round2, b.side, func(s string) bool {
		out = append(out, s)
		return true
	})
	sort.Strings(out)
	return out, rounds, err
}

// TestPipeMatchesSerial: a pipe's outputs are the two rounds' composition,
// and its per-round metrics are what two separate rounds would report —
// round 1 ships n pairs to 7 keys and outputs n values, round 2 ships those
// n plus side's n to 5 keys — in memory and under budgets that spill both
// rounds, at every partition count.
func TestPipeMatchesSerial(t *testing.T) {
	const n = 600
	b := newPipeBed(n)
	want := b.want()
	for _, budget := range []int64{0, 1, 4 << 10, 64 << 10, 1 << 20} {
		for _, np := range []int{1, 3} {
			dir := t.TempDir()
			cfg := Config{Parallelism: 2, Partitions: np, MemoryBudget: budget, SpillDir: dir}
			got, rounds, err := b.run(context.Background(), cfg)
			label := fmt.Sprintf("budget %d, %d partitions", budget, np)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: outputs %v, want %v", label, got, want)
			}
			if rounds[0].Name != "residues" || rounds[1].Name != "sums" {
				t.Fatalf("%s: rounds %+v", label, rounds)
			}
			r1, r2 := rounds[0].Metrics, rounds[1].Metrics
			if r1.KeyValuePairs != n || r1.DistinctKeys != 7 || r1.Outputs != n || r1.MaxReducerInput != (n+6)/7 {
				t.Errorf("%s: round 1 metrics %+v", label, r1)
			}
			if r2.KeyValuePairs != 2*n || r2.DistinctKeys != 5 || r2.Outputs != 5 || r2.MaxReducerInput != 2*n/5 || r2.ReducerWork != 2*n {
				t.Errorf("%s: round 2 metrics %+v", label, r2)
			}
			if budget == 0 && r1.SpillFiles+r2.SpillFiles != 0 || budget > 0 && budget <= 4<<10 && (r1.SpillFiles == 0 || r2.SpillFiles == 0) {
				t.Errorf("%s: spill files %d and %d", label, r1.SpillFiles, r2.SpillFiles)
			}
			assertNoSpillFiles(t, dir)
		}
	}
}

// TestPipeUnnamedRounds: an unnamed job's round is named by its place in
// the pipe.
func TestPipeUnnamedRounds(t *testing.T) {
	b := newPipeBed(50)
	b.round1.Name, b.round2.Name = "", ""
	_, rounds, err := b.run(context.Background(), Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rounds[0].Name != "round 1" || rounds[1].Name != "round 2" {
		t.Errorf("round names %q, %q; want round 1, round 2", rounds[0].Name, rounds[1].Name)
	}
}

// TestPipeNextMapFailureIsTyped: a panic in round 2's Map, or an injected
// fault at mr.map where round 2's Map runs on a round-1 reduce worker,
// comes back as a typed *EngineError naming round 2 and StageMap — not as
// the reduce worker's own failure — with nothing left behind.
func TestPipeNextMapFailureIsTyped(t *testing.T) {
	for _, tc := range []string{"panic in Map", "mr.map=error", "mr.map=panic"} {
		for _, budget := range []int64{0, 16 << 10} {
			t.Run(fmt.Sprintf("%s/budget %d", tc, budget), func(t *testing.T) {
				t.Cleanup(failpoint.Reset)
				b := newPipeBed(2000)
				// No side mapper: round 2's only map work runs on round 1's
				// reduce workers.
				b.side = nil
				if tc == "panic in Map" {
					b.round2.Map = func([2]int64, func(int64, int64)) { panic("boom") }
				} else {
					// Armed from inside round 1's reduce phase, after every
					// round-1 map worker has passed the site.
					var arm sync.Once
					reduce := b.round1.Reduce
					b.round1.Reduce = func(ctx *Context, r int64, xs []int64, emit func([2]int64)) {
						arm.Do(func() {
							if err := failpoint.Enable(failpoint.MapWorker, tc[len("mr.map="):]); err != nil {
								t.Error(err)
							}
						})
						reduce(ctx, r, xs, emit)
					}
				}
				dir := t.TempDir()
				baseline := runtime.NumGoroutine()
				out, _, err := b.run(context.Background(), Config{Parallelism: 2, Partitions: 2, MemoryBudget: budget, SpillDir: dir})
				waitForGoroutines(t, baseline)
				assertNoSpillFiles(t, dir)
				var ee *EngineError
				if !errors.As(err, &ee) || ee.Stage != StageMap || ee.Job != "sums" {
					t.Fatalf("error %v, want a map-stage *EngineError of round 2 (sums)", err)
				}
				if tc == "mr.map=error" && !errors.Is(err, failpoint.ErrInjected) {
					t.Errorf("error %v does not wrap failpoint.ErrInjected", err)
				}
				if len(out) != 0 {
					t.Errorf("failed pipe delivered %d outputs", len(out))
				}
			})
		}
	}
}

// TestPipeCancelAndStop: cancelling mid-pipe — while round 1's reducers
// are feeding round 2 — returns ctx.Err() and leaves no goroutine and no
// spill file of either round; a sink that stops the pipe gets a nil error.
func TestPipeCancelAndStop(t *testing.T) {
	for _, budget := range []int64{0, 16 << 10} {
		dir := t.TempDir()
		cfg := Config{Parallelism: 2, Partitions: 2, MemoryBudget: budget, SpillDir: dir}
		baseline := runtime.NumGoroutine()

		b := newPipeBed(2000)
		ctx, cancel := context.WithCancel(context.Background())
		var calls sync.Mutex
		reduced := 0
		reduce := b.round1.Reduce
		b.round1.Reduce = func(rctx *Context, r int64, xs []int64, emit func([2]int64)) {
			reduce(rctx, r, xs, emit)
			calls.Lock()
			if reduced++; reduced == 3 {
				cancel()
			}
			calls.Unlock()
		}
		_, rounds, err := b.run(ctx, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("budget %d: cancelled pipe returned %v, want context.Canceled", budget, err)
		}
		if budget > 0 && rounds[0].Metrics.SpillFiles == 0 {
			t.Errorf("budget %d: round 1 spilled nothing before the cancellation", budget)
		}
		waitForGoroutines(t, baseline)
		assertNoSpillFiles(t, dir)

		b = newPipeBed(2000)
		taken := 0
		rounds, err = RunPipe(context.Background(), cfg, b.round1, b.inputs(), b.round2, b.side, func(string) bool {
			taken++
			return taken < 2
		})
		if err != nil || taken != 2 || rounds[1].Metrics.Outputs != 1 {
			t.Errorf("budget %d: stopped pipe: err %v, yield called %d times, Outputs %d; want nil, 2, 1",
				budget, err, taken, rounds[1].Metrics.Outputs)
		}
		waitForGoroutines(t, baseline)
		assertNoSpillFiles(t, dir)
	}
}
