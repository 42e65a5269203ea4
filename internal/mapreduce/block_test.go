package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"subgraphmr/internal/failpoint"
)

// blockBed is one random replicate-by-reference job and the plain Job that
// says what it means: the mapper that emits (key, v) for every key covering
// v's block.
type blockBed struct {
	inputs []int
	covers [][]int32 // key → the blocks it covers, duplicate-free
	block  BlockJob[int, int, int, string]
	pairs  Job[int, int, int, string]
}

func newBlockBed(rng *rand.Rand) *blockBed {
	bed := &blockBed{}
	blocks := 1 + rng.Intn(12)
	for k, nk := 0, rng.Intn(20); k < nk; k++ {
		var cover []int32
		for _, b := range rng.Perm(blocks)[:rng.Intn(blocks+1)] { // sometimes none
			cover = append(cover, int32(b))
		}
		bed.covers = append(bed.covers, cover)
	}
	bed.inputs = make([]int, rng.Intn(80))
	for i := range bed.inputs {
		bed.inputs[i] = rng.Intn(1000)
	}
	// An input lands in one block, every third one in a second block too.
	blocksOf := func(x int, emit func(block int)) {
		emit(x % blocks)
		if x%3 == 0 {
			emit(x / 3 % blocks)
		}
	}
	reduce := func(ctx *Context, key int, vs []int, emit func(string)) {
		ctx.AddWork(int64(len(vs)))
		sorted := slices.Clone(vs)
		slices.Sort(sorted)
		emit(fmt.Sprint(key, sorted))
		if len(vs) > 3 {
			emit(fmt.Sprint(key, " again"))
		}
	}
	bed.block = BlockJob[int, int, int, string]{
		Name:   "bed",
		Blocks: blocks,
		Map:    func(x int, emit func(int, int)) { blocksOf(x, func(b int) { emit(b, x) }) },
		Keys: func(yield func(int, []int32)) {
			for k, cover := range bed.covers {
				yield(k, cover)
			}
		},
		Reduce: reduce,
	}
	bed.pairs = Job[int, int, int, string]{
		Map: func(x int, emit func(int, int)) {
			blocksOf(x, func(b int) {
				for k, cover := range bed.covers {
					if slices.Contains(cover, int32(b)) {
						emit(k, x)
					}
				}
			})
		},
		Reduce: reduce,
	}
	return bed
}

type streamer func(ctx context.Context, cfg Config, inputs []int, yield func(string) bool) (Metrics, error)

func sortedOutputs(t *testing.T, run streamer, cfg Config, inputs []int) ([]string, Metrics) {
	t.Helper()
	var out []string
	m, err := run(context.Background(), cfg, inputs, func(s string) bool {
		out = append(out, s)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out, m
}

// TestBlockJobMatchesPairJobQuick: over random block counts, key → block
// covers, inputs, partition counts, memory budgets and distributed slices,
// a BlockJob is the plain Job that emits one pair per covering key — same
// output multiset, same KeyValuePairs, DistinctKeys, MaxReducerInput,
// ReducerWork and Outputs — except that it never spills, budget or not; the
// map-only probe reports the same loads; and N disjoint Dist runs add up to
// the unfiltered one.
func TestBlockJobMatchesPairJobQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bed := newBlockBed(rng)
		cfg := Config{Parallelism: 1 + rng.Intn(3), Partitions: 1 + rng.Intn(4), SpillDir: t.TempDir()}
		cfg.MemoryBudget = []int64{0, 1, 1 << 10}[rng.Intn(3)]
		same := func(label string, cfg Config) (out []string, m Metrics) {
			got, gotM := sortedOutputs(t, bed.block.RunStream, cfg, bed.inputs)
			want, wantM := sortedOutputs(t, bed.pairs.RunStream, cfg, bed.inputs)
			if !slices.Equal(got, want) {
				t.Errorf("seed %d %s: block job output %v, pair job %v", seed, label, got, want)
			}
			if gotM.SpilledPairs != 0 || gotM.SpillBytes != 0 || gotM.SpillFiles != 0 {
				t.Errorf("seed %d %s: block job spilled under budget %d: %+v", seed, label, cfg.MemoryBudget, gotM)
			}
			// The pair job's spilling is its own; the rest is exact.
			wantM.SpilledPairs, wantM.SpillBytes, wantM.SpillFiles = 0, 0, 0
			if gotM != wantM {
				t.Errorf("seed %d %s: block job metrics %+v, pair job %+v", seed, label, gotM, wantM)
			}
			ls, err := bed.block.Loads(cfg, bed.inputs)
			if err != nil || ls != (LoadStats{Pairs: wantM.KeyValuePairs, Keys: wantM.DistinctKeys, MaxLoad: wantM.MaxReducerInput}) {
				t.Errorf("seed %d %s: probe %+v (%v), the job shipped %+v", seed, label, ls, err, wantM)
			}
			return got, gotM
		}
		whole, wholeM := same("unfiltered", cfg)

		nSlices := 1 + rng.Intn(3)
		var parts []string
		var sum Metrics
		for owned := 0; owned < nSlices; owned++ {
			cfg.Dist = NewDistFilter(nSlices, []int{owned})
			out, m := same(fmt.Sprintf("slice %d/%d", owned, nSlices), cfg)
			parts = append(parts, out...)
			sum.Add(m)
		}
		slices.Sort(parts)
		if !slices.Equal(parts, whole) || sum != wholeM {
			t.Errorf("seed %d: %d disjoint slices give %v %+v, the unfiltered run %v %+v", seed, nSlices, parts, sum, whole, wholeM)
		}
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBlockJobNeverSpills: under a 1-byte and a 2 KiB budget, with a spill
// directory that does not exist, a block job runs its one in-memory path —
// the same outputs and metrics as without a budget, nothing spilled, no
// file created — and an invalid Dist filter is an error from run and probe
// alike.
func TestBlockJobNeverSpills(t *testing.T) {
	bed := slowBed(50, 0)
	want, wantM := sortedOutputs(t, bed.RunStream, Config{}, bed64)
	spillDir := filepath.Join(t.TempDir(), "missing")
	for _, budget := range []int64{1, 2048} {
		got, m := sortedOutputs(t, bed.RunStream, Config{MemoryBudget: budget, SpillDir: spillDir}, bed64)
		if !slices.Equal(got, want) || m != wantM || m.KeyValuePairs != 50*64 {
			t.Errorf("budget %d: %d outputs %+v; without a budget %d outputs %+v, %d pairs", budget, len(got), m, len(want), wantM, 50*64)
		}
	}
	if _, err := os.Stat(spillDir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the spill directory was touched: %v", err)
	}
	bad := Config{Dist: &DistFilter{Partitions: 2}}
	if _, err := bed.RunStream(context.Background(), bad, bed64, func(string) bool { return true }); err == nil {
		t.Error("RunStream accepted a Dist filter with no Owned flags")
	}
	if _, err := bed.Loads(bad, bed64); err == nil {
		t.Error("Loads accepted a Dist filter with no Owned flags")
	}
}

// bed64 is 64 inputs, one per block of slowBed.
var bed64 = func() []int {
	xs := make([]int, 64)
	for i := range xs {
		xs[i] = i
	}
	return xs
}()

// slowBed is a block job of the given number of tasks, each covering all 64
// one-value blocks, whose reducer spins for the given time and emits once.
func slowBed(tasks int, spin time.Duration) BlockJob[int, int, int, string] {
	all := make([]int32, 64)
	for i := range all {
		all[i] = int32(i)
	}
	return BlockJob[int, int, int, string]{
		Name:   "slow",
		Blocks: 64,
		Map:    func(x int, emit func(int, int)) { emit(x, x) },
		Keys: func(yield func(int, []int32)) {
			for k := 0; k < tasks; k++ {
				yield(k, all)
			}
		},
		Reduce: func(_ *Context, key int, vs []int, emit func(string)) {
			for start := time.Now(); time.Since(start) < spin; {
			}
			emit(fmt.Sprint(key, len(vs)))
		},
	}
}

// TestBlockJobStopAndCancel: a yield that returns false stops the job with a
// nil error and whole-job communication metrics; a cancelled ctx returns
// ctx.Err(); neither leaves a goroutine behind.
func TestBlockJobStopAndCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	job := slowBed(500, 20*time.Microsecond)
	taken := 0
	m, err := job.RunStream(context.Background(), Config{Partitions: 3}, bed64, func(string) bool {
		taken++
		return taken < 5
	})
	if err != nil || taken != 5 || m.Outputs != 4 {
		t.Errorf("stopped run: err %v, yield called %d times, Outputs %d; want nil, 5, 4", err, taken, m.Outputs)
	}
	if m.KeyValuePairs != 500*64 || m.DistinctKeys != 500 || m.MaxReducerInput != 64 {
		t.Errorf("stopped run reports partial communication: %+v", m)
	}
	waitForGoroutines(t, baseline)

	ctx, cancel := context.WithCancel(context.Background())
	_, err = job.RunStream(ctx, Config{Partitions: 3}, bed64, func(string) bool {
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
	waitForGoroutines(t, baseline)

	// Cancelled before it starts: the map phase sees the stop and nothing runs.
	_, err = job.RunStream(ctx, Config{}, bed64, func(string) bool {
		t.Error("a job under a cancelled ctx delivered an output")
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("run under a cancelled ctx returned %v, want context.Canceled", err)
	}
	waitForGoroutines(t, baseline)
}

// TestBlockJobFailuresAreTyped: a panic in Map, Keys or Reduce and an
// injected fault at either worker failpoint come back as a typed
// *EngineError naming the stage, with no output after it and no goroutine
// left — with and without a budget, which a block job ignores.
func TestBlockJobFailuresAreTyped(t *testing.T) {
	boom := func() { panic("boom") }
	cases := []struct {
		name  string
		site  string // failpoint to arm, or ""
		wreck func(j *BlockJob[int, int, int, string])
		stage string
	}{
		{"map panic", "", func(j *BlockJob[int, int, int, string]) { j.Map = func(int, func(int, int)) { boom() } }, StageMap},
		{"map out of range", "", func(j *BlockJob[int, int, int, string]) { j.Map = func(x int, emit func(int, int)) { emit(64, x) } }, StageMap},
		{"keys panic", "", func(j *BlockJob[int, int, int, string]) { j.Keys = func(func(int, []int32)) { boom() } }, StageMap},
		{"reduce panic", "", func(j *BlockJob[int, int, int, string]) {
			j.Reduce = func(*Context, int, []int, func(string)) { boom() }
		}, StageReduce},
		{"prepare panic", "", func(j *BlockJob[int, int, int, string]) {
			j.Prepare = func(*Context, int, []int) { boom() }
		}, StageReduce},
		{"mr.map", failpoint.MapWorker, nil, StageMap},
		{"mr.reduce", failpoint.ReduceWorker, nil, StageReduce},
	}
	for _, tc := range cases {
		for _, mode := range []string{"error", "panic"} {
			for _, budget := range []int64{0, 1} {
				if tc.site == "" && mode == "panic" {
					continue // the job's own panic needs no second flavor
				}
				t.Run(fmt.Sprintf("%s/%s/budget=%d", tc.name, mode, budget), func(t *testing.T) {
					t.Cleanup(failpoint.Reset)
					job := slowBed(40, 0)
					if tc.wreck != nil {
						tc.wreck(&job)
					}
					if tc.site != "" {
						if err := failpoint.Enable(tc.site, mode); err != nil {
							t.Fatal(err)
						}
					}
					baseline := runtime.NumGoroutine()
					_, err := job.RunStream(context.Background(), Config{Partitions: 2, MemoryBudget: budget, SpillDir: t.TempDir()}, bed64,
						func(string) bool { return true })
					waitForGoroutines(t, baseline)
					var ee *EngineError
					if !errors.As(err, &ee) || ee.Stage != tc.stage || ee.Job != "slow" {
						t.Fatalf("got %v (%T), want an *EngineError at stage %q of job slow", err, err, tc.stage)
					}
					if tc.site != "" && !errors.Is(err, failpoint.ErrInjected) && mode == "error" {
						t.Errorf("cause chain %v lost ErrInjected", err)
					}
				})
			}
		}
	}
}

// TestBlockPrepareContractQuick: over random block jobs, at four
// partitions, with and without a budget, Prepare runs exactly
// once for every non-empty block some task reads — on that block's values,
// before any reducer call that reads it — and never for an empty block or
// for Loads; every reducer call finds its task's non-empty blocks in
// Context.Blocks, the same ones under either budget.
func TestBlockPrepareContractQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bed := newBlockBed(rng)
		job := bed.block
		vals := make([][]int, job.Blocks) // block → its values, in input order
		for _, x := range bed.inputs {
			job.Map(x, func(b int, v int) { vals[b] = append(vals[b], v) })
		}
		want := make([]int, job.Blocks) // block → Prepare calls a run must make
		for _, cover := range bed.covers {
			for _, b := range cover {
				if len(vals[b]) > 0 {
					want[b] = 1
				}
			}
		}

		var mu sync.Mutex
		var prepared []int
		var seen map[int][]int32 // key → Context.Blocks
		job.Prepare = func(_ *Context, b int, vs []int) {
			mu.Lock()
			defer mu.Unlock()
			prepared[b]++
			if !slices.Equal(vs, vals[b]) {
				t.Errorf("seed %d: Prepare(%d) got %v, the block holds %v", seed, b, vs, vals[b])
			}
		}
		reduce := job.Reduce
		job.Reduce = func(ctx *Context, key int, vs []int, emit func(string)) {
			mu.Lock()
			var blocks []int32
			for _, b := range bed.covers[key] {
				if len(vals[b]) > 0 {
					blocks = append(blocks, b)
				}
			}
			if !slices.Equal(ctx.Blocks, blocks) {
				t.Errorf("seed %d key %d: Context.Blocks %v, want the non-empty cover %v", seed, key, ctx.Blocks, blocks)
			}
			for _, b := range ctx.Blocks {
				if prepared[b] != 1 {
					t.Errorf("seed %d key %d: block %d read after %d Prepare calls", seed, key, b, prepared[b])
				}
			}
			seen[key] = slices.Clone(ctx.Blocks)
			mu.Unlock()
			reduce(ctx, key, vs, emit)
		}

		var first map[int][]int32
		for _, budget := range []int64{0, 1} {
			prepared, seen = make([]int, job.Blocks), map[int][]int32{}
			cfg := Config{Partitions: 4, MemoryBudget: budget, SpillDir: t.TempDir()}
			if _, err := job.RunStream(context.Background(), cfg, bed.inputs, func(string) bool { return true }); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(prepared, want) {
				t.Errorf("seed %d budget %d: Prepare calls per block %v, want %v", seed, budget, prepared, want)
			}
			if first == nil {
				first = seen
			} else if !maps.EqualFunc(seen, first, slices.Equal) {
				t.Errorf("seed %d: under a budget the reducers saw blocks %v, without one %v", seed, seen, first)
			}
		}
		prepared = make([]int, job.Blocks)
		if _, err := job.Loads(Config{}, bed.inputs); err != nil {
			t.Fatal(err)
		}
		if slices.Max(append(prepared, 0)) != 0 {
			t.Errorf("seed %d: Loads prepared blocks %v", seed, prepared)
		}
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBlockPrepareFailureReleasesWaiters: when the Prepare of a block every
// task reads panics while the other workers wait for it, the job fails with
// the typed error, no reducer runs on the unprepared block and no goroutine
// is left — with and without a budget.
func TestBlockPrepareFailureReleasesWaiters(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			job := slowBed(40, 0)
			job.Prepare = func(_ *Context, b int, _ []int) {
				if b == 0 {
					time.Sleep(20 * time.Millisecond) // the other workers queue on block 0
					panic("boom")
				}
			}
			var reduced atomic.Int64
			job.Reduce = func(*Context, int, []int, func(string)) { reduced.Add(1) }
			baseline := runtime.NumGoroutine()
			_, err := job.RunStream(context.Background(), Config{Partitions: 4, MemoryBudget: budget, SpillDir: t.TempDir()}, bed64,
				func(string) bool { return true })
			waitForGoroutines(t, baseline)
			var ee *EngineError
			if !errors.As(err, &ee) || ee.Stage != StageReduce || ee.Job != "slow" {
				t.Fatalf("got %v (%T), want an *EngineError at stage %q of job slow", err, err, StageReduce)
			}
			if n := reduced.Load(); n != 0 {
				t.Errorf("%d reducer calls ran on a block whose Prepare failed", n)
			}
		})
	}
}

// TestBlockJobFailureOutranksCancel: when a worker fails and the ctx is
// cancelled as well, the fault is what the caller hears about.
func TestBlockJobFailureOutranksCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	job := slowBed(40, 0)
	job.Reduce = func(*Context, int, []int, func(string)) {
		cancel()
		panic("boom")
	}
	_, err := job.RunStream(ctx, Config{Partitions: 2}, bed64, func(string) bool { return true })
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("got %v, want the *EngineError, not the cancellation", err)
	}
}

// TestBlockReduceYieldsBetweenTasks is the regression test for the service's
// time to first result: a block job's reduce tasks never block, so without a
// yield between tasks its workers hold every P for whole preemption slices
// and a goroutine that sleeps and wakes — a timer, a channel, the network
// poller: any concurrent query that is not itself spinning — runs only in
// the gaps. On one P, beside 2000 tasks of 200 µs, a bystander doing twenty
// 50 µs sleeps finishes in ~4 ms with the yield and ~380 ms without it.
func TestBlockReduceYieldsBetweenTasks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	job := slowBed(2000, 200*time.Microsecond)
	started := make(chan struct{})
	var once sync.Once
	reduce := job.Reduce
	job.Reduce = func(ctx *Context, key int, vs []int, emit func(string)) {
		once.Do(func() { close(started) })
		reduce(ctx, key, vs, emit)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		job.RunStream(ctx, Config{Partitions: 2}, bed64, func(string) bool { return true })
	}()
	<-started
	begin := time.Now()
	for i := 0; i < 20; i++ {
		time.Sleep(50 * time.Microsecond)
	}
	took := time.Since(begin)
	cancel()
	<-done
	if took > 50*time.Millisecond {
		t.Errorf("20 × 50 µs sleeps beside a running block job took %v, want < 50 ms: reduce workers are not yielding between tasks", took)
	}
}

// TestBlockLoopsDoNotAllocate: on a warmed worker the scatter passes
// allocate nothing per input and a gather nothing per task.
func TestBlockLoopsDoNotAllocate(t *testing.T) {
	job := slowBed(8, 0)
	var never atomic.Bool
	p, err := job.plan(Config{}, bed64, &never, false)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, job.Blocks)
	count := func(block int, _ int) { sizes[block]++ }
	if allocs := testing.AllocsPerRun(50, func() { job.forEachInput(bed64, &never, count) }); allocs != 0 {
		t.Errorf("a scatter pass over %d inputs allocates %v objects, want 0", len(bed64), allocs)
	}
	group := make([]int, 0, p.loads.MaxLoad)
	if allocs := testing.AllocsPerRun(50, func() {
		for _, task := range p.tasks {
			group = p.gather(group[:0], task)
		}
	}); allocs != 0 || len(group) != 64 {
		t.Errorf("gathering %d tasks allocates %v objects (last group %d values), want 0 (64)", len(p.tasks), allocs, len(group))
	}
}
