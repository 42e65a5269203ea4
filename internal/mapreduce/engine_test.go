package mapreduce

import (
	"sort"
	"strings"
	"testing"
)

// wordMapper emits (word, 1) per word of the line.
func wordMapper(line string, emit func(string, int64)) {
	for _, w := range strings.Fields(line) {
		emit(w, 1)
	}
}

func sumReducer(ctx *Context, word string, counts []int64, emit func(string)) {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	ctx.AddWork(int64(len(counts)))
	emit(word + ":" + strings.Repeat("x", int(sum)))
}

func corpus(n int) []string {
	words := []string{"a", "b", "c", "dd", "ee", "f", "a", "a", "b"}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = strings.Join(words[i%len(words):], " ")
	}
	return lines
}

// TestSingleKey routes every pair to one reducer.
func TestSingleKey(t *testing.T) {
	inputs := make([]int, 1000)
	for i := range inputs {
		inputs[i] = i
	}
	outs, m := Run(Config{Parallelism: 8, Partitions: 8}, inputs,
		func(x int, emit func(struct{}, int)) { emit(struct{}{}, x) },
		func(_ *Context, _ struct{}, vs []int, emit func(int)) { emit(len(vs)) },
	)
	if len(outs) != 1 || outs[0] != 1000 {
		t.Fatalf("outs = %v, want [1000]", outs)
	}
	if m.DistinctKeys != 1 || m.MaxReducerInput != 1000 || m.KeyValuePairs != 1000 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestEmptyInputVariants covers empty and all-filtered inputs across
// partition counts.
func TestEmptyInputVariants(t *testing.T) {
	for _, np := range []int{0, 1, 7} {
		outs, m := Run(Config{Partitions: np}, []int{1, 2, 3},
			func(int, func(int, int)) {}, // maps everything to nothing
			func(*Context, int, []int, func(int)) {},
		)
		if len(outs) != 0 || m != (Metrics{}) {
			t.Errorf("partitions=%d: filtered job produced %v, %+v", np, outs, m)
		}
	}
}

// TestPipelinedMatchesBarrier checks the determinism guarantee: the
// pipelined engine reports byte-identical metrics to the original barrier
// engine, across worker/partition configurations and memory budgets.
func TestPipelinedMatchesBarrier(t *testing.T) {
	inputs := make([]int, 2000)
	for i := range inputs {
		inputs[i] = i * 31
	}
	mapFn := func(x int, emit func(int, int)) {
		emit(x%129, x)
		if x%3 == 0 {
			emit(x%43, -x)
		}
	}
	reduceFn := func(ctx *Context, k int, vs []int, emit func(int)) {
		ctx.AddWork(int64(len(vs)))
		sum := k
		for _, v := range vs {
			sum += v
		}
		emit(sum)
	}
	wantOut, wantM := runBarrier(Config{Parallelism: 2}, inputs, mapFn, reduceFn)
	sort.Ints(wantOut)
	for _, cfg := range []Config{
		{},
		{Parallelism: 1},
		{Parallelism: 1, Partitions: 9},
		{Parallelism: 8, Partitions: 3},
		{MemoryBudget: 4096},
		{Parallelism: 8, Partitions: 3, MemoryBudget: 1},
	} {
		gotOut, gotM := Run(cfg, inputs, mapFn, reduceFn)
		sort.Ints(gotOut)
		if cfg.MemoryBudget > 0 && gotM.SpilledPairs == 0 {
			t.Errorf("cfg %+v: tiny budget did not spill", cfg)
		}
		gotM.SpilledPairs, gotM.SpillBytes, gotM.SpillFiles = 0, 0, 0
		if gotM != wantM {
			t.Errorf("cfg %+v: metrics = %+v, want %+v", cfg, gotM, wantM)
		}
		if len(gotOut) != len(wantOut) {
			t.Fatalf("cfg %+v: %d outputs, want %d", cfg, len(gotOut), len(wantOut))
		}
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("cfg %+v: outputs differ", cfg)
			}
		}
	}
}

// TestContextLocalAndStopped: a reduce worker hands one Context to every
// reducer call it makes, so Local carries state from key to key; Stopped is
// false while the job wants output and true from the moment yield refuses
// one — inside the very reducer call that emitted it — after which no
// further group is reduced. Both hold on the in-memory and the spill-merge
// path.
func TestContextLocalAndStopped(t *testing.T) {
	inputs := make([]int, 40)
	for i := range inputs {
		inputs[i] = i
	}
	for _, cfg := range []Config{
		{Parallelism: 2, Partitions: 1},
		{Parallelism: 2, Partitions: 1, MemoryBudget: 256, SpillDir: t.TempDir()},
	} {
		for _, accept := range []bool{true, false} {
			calls := 0
			job := Job[int, int, int, int]{
				Map: func(i int, emit func(int, int)) { emit(i, i) },
				Reduce: func(ctx *Context, k int, _ []int, emit func(int)) {
					n, _ := ctx.Local.(*int)
					if n == nil {
						n = new(int)
						ctx.Local = n
					}
					*n++
					calls = *n
					if ctx.Stopped() {
						t.Errorf("key %d: Stopped before any output was refused", k)
					}
					emit(k)
					if ctx.Stopped() == accept {
						t.Errorf("key %d: Stopped = %v after yield returned %v", k, ctx.Stopped(), accept)
					}
				},
			}
			if _, err := job.RunStream(t.Context(), cfg, inputs, func(int) bool { return accept }); err != nil {
				t.Fatal(err)
			}
			if want := map[bool]int{true: len(inputs), false: 1}[accept]; calls != want {
				t.Errorf("budget %d, accept %v: the worker's Local counted %d reducer calls, want %d", cfg.MemoryBudget, accept, calls, want)
			}
		}
	}
	if (&Context{}).Stopped() {
		t.Error("a Context outside a job reports Stopped")
	}
}
