package mapreduce

import (
	"sort"
	"strings"
	"testing"
)

func TestWordCount(t *testing.T) {
	inputs := []string{"a b a", "c b", "a"}
	outs, m := Run(Config{},
		inputs,
		func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		func(_ *Context, word string, ones []int, emit func(string)) {
			var b strings.Builder
			b.WriteString(word)
			b.WriteByte(':')
			for range ones {
				b.WriteByte('x')
			}
			emit(b.String())
		},
	)
	sort.Strings(outs)
	want := []string{"a:xxx", "b:xx", "c:x"}
	if len(outs) != 3 {
		t.Fatalf("outs = %v", outs)
	}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("outs = %v, want %v", outs, want)
		}
	}
	if m.KeyValuePairs != 6 {
		t.Errorf("communication = %d, want 6", m.KeyValuePairs)
	}
	if m.DistinctKeys != 3 {
		t.Errorf("distinct keys = %d, want 3", m.DistinctKeys)
	}
	if m.MaxReducerInput != 3 {
		t.Errorf("max reducer input = %d, want 3", m.MaxReducerInput)
	}
	if m.Outputs != 3 {
		t.Errorf("outputs = %d, want 3", m.Outputs)
	}
}

func TestMetricsStableAcrossParallelism(t *testing.T) {
	inputs := make([]int, 500)
	for i := range inputs {
		inputs[i] = i
	}
	run := func(par int) ([]int, Metrics) {
		outs, m := Run(Config{Parallelism: par},
			inputs,
			func(x int, emit func(int, int)) {
				emit(x%17, x)
				if x%2 == 0 {
					emit(x%13, x)
				}
			},
			func(ctx *Context, k int, vs []int, emit func(int)) {
				ctx.AddWork(int64(len(vs)))
				sum := 0
				for _, v := range vs {
					sum += v
				}
				emit(sum)
			},
		)
		sort.Ints(outs)
		return outs, m
	}
	o1, m1 := run(1)
	o8, m8 := run(8)
	if m1 != m8 {
		t.Errorf("metrics differ across parallelism: %+v vs %+v", m1, m8)
	}
	if len(o1) != len(o8) {
		t.Fatalf("output sizes differ: %d vs %d", len(o1), len(o8))
	}
	for i := range o1 {
		if o1[i] != o8[i] {
			t.Fatal("outputs differ across parallelism")
		}
	}
	if m1.ReducerWork != m1.KeyValuePairs {
		t.Errorf("work %d should equal pairs %d in this job", m1.ReducerWork, m1.KeyValuePairs)
	}
}

func TestEmptyInputs(t *testing.T) {
	outs, m := Run(Config{}, nil,
		func(int, func(int, int)) {},
		func(*Context, int, []int, func(int)) {},
	)
	if len(outs) != 0 || m.KeyValuePairs != 0 || m.DistinctKeys != 0 {
		t.Errorf("empty job produced %v, %+v", outs, m)
	}
}

func TestGroupingDeliversAllValues(t *testing.T) {
	// Every value emitted under a key must reach exactly one reducer call.
	inputs := make([]int, 100)
	for i := range inputs {
		inputs[i] = i
	}
	calls := map[int]int{}
	total := 0
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	Run(Config{Parallelism: 4},
		inputs,
		func(x int, emit func(int, int)) { emit(x/10, x) },
		func(_ *Context, k int, vs []int, emit func(struct{})) {
			<-mu
			calls[k]++
			total += len(vs)
			mu <- struct{}{}
		},
	)
	if len(calls) != 10 || total != 100 {
		t.Fatalf("calls=%v total=%d", calls, total)
	}
	for k, c := range calls {
		if c != 1 {
			t.Errorf("key %d reduced %d times", k, c)
		}
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{KeyValuePairs: 5, DistinctKeys: 2, MaxReducerInput: 3, ReducerWork: 7, Outputs: 1}
	b := Metrics{KeyValuePairs: 1, DistinctKeys: 1, MaxReducerInput: 9, ReducerWork: 1, Outputs: 2}
	a.Add(b)
	want := Metrics{KeyValuePairs: 6, DistinctKeys: 3, MaxReducerInput: 9, ReducerWork: 8, Outputs: 3}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
