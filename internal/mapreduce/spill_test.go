package mapreduce

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"subgraphmr/internal/graph"
)

// TestDefaultCodecCoverage pins the narrowed contract: DefaultCodec covers
// integer kinds and fixed-size types — the engine's reducer key, arrays and
// fixed-width structs among them — and returns nil for everything else,
// which a job must encode with its own Codec.
func TestDefaultCodecCoverage(t *testing.T) {
	type edge struct{ U, V int32 }
	type named int16
	for name, ok := range map[string]bool{
		"int/int8":        DefaultCodec[int, int8]() != nil,
		"int16/int32":     DefaultCodec[int16, int32]() != nil,
		"int64/named":     DefaultCodec[int64, named]() != nil,
		"uint/uint8":      DefaultCodec[uint, uint8]() != nil,
		"uint16/uint32":   DefaultCodec[uint16, uint32]() != nil,
		"uint64/uintptr":  DefaultCodec[uint64, uintptr]() != nil,
		"graph.BucketKey": DefaultCodec[graph.BucketKey, graph.Edge]() != nil,
		"[2]int64":        DefaultCodec[[2]int64, [2]int64]() != nil,
		"struct/struct{}": DefaultCodec[edge, struct{}]() != nil,
		"bool/float64":    DefaultCodec[bool, float64]() != nil,
	} {
		if !ok {
			t.Errorf("%s: DefaultCodec is nil, want a codec", name)
		}
	}
	for name, ok := range map[string]bool{
		"string key":         DefaultCodec[string, int64]() != nil,
		"string value":       DefaultCodec[int64, string]() != nil,
		"slice value":        DefaultCodec[int64, []int64]() != nil,
		"map value":          DefaultCodec[int64, map[int]int]() != nil,
		"pointer key":        DefaultCodec[*int, int64]() != nil,
		"pointer value":      DefaultCodec[int64, *edge]() != nil,
		"struct with string": DefaultCodec[struct{ S string }, int64]() != nil,
	} {
		if ok {
			t.Errorf("%s: DefaultCodec is non-nil, want nil", name)
		}
	}
}

// TestDefaultCodecRoundTrip exercises both encoding paths of DefaultCodec:
// fixed-width integers and encoding/binary for fixed-size structs.
func TestDefaultCodecRoundTrip(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		c := DefaultCodec[int64, int64]()
		for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
			vb := c.AppendValue(nil, v)
			got, err := c.DecodeValue(vb)
			if err != nil || got != v {
				t.Fatalf("value %d round-tripped to %d, %v", v, got, err)
			}
		}
	})
	t.Run("fixed-struct", func(t *testing.T) {
		type edge struct{ U, V int32 }
		c := DefaultCodec[[2]int64, edge]()
		k := [2]int64{-5, 9}
		kk, err := c.DecodeKey(c.AppendKey(nil, k))
		if err != nil || kk != k {
			t.Fatalf("key %v round-tripped to %v, %v", k, kk, err)
		}
		v := edge{7, -3}
		vv, err := c.DecodeValue(c.AppendValue(nil, v))
		if err != nil || vv != v {
			t.Fatalf("value %v round-tripped to %v, %v", v, vv, err)
		}
	})
	t.Run("key-encoding-injective", func(t *testing.T) {
		c := DefaultCodec[int, int]()
		seen := map[string]int{}
		for k := -100; k < 100; k++ {
			kb := string(c.AppendKey(nil, k))
			if prev, dup := seen[kb]; dup {
				t.Fatalf("keys %d and %d share encoding %q", prev, k, kb)
			}
			seen[kb] = k
		}
	})
}

// TestJobWithoutCodec: a string-keyed job that brings no Codec runs in
// memory, and under a memory budget or a DistFilter — which both encode
// keys — fails before any worker starts, naming the types, with no spill
// file and no goroutine left.
func TestJobWithoutCodec(t *testing.T) {
	job := spillJob()
	job.Codec = nil
	t.Run("in memory", func(t *testing.T) {
		want, _ := spillJob().Run(Config{Parallelism: 2}, corpus(50))
		got, _ := job.Run(Config{Parallelism: 2}, corpus(50))
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatal("the in-memory run without a Codec differs from the one with")
		}
	})
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"1 B budget", Config{Parallelism: 2, MemoryBudget: 1, SpillDir: dir}},
		{"dist filter", Config{Parallelism: 2, Dist: NewDistFilter(2, []int{0})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			out, _, err := collect(context.Background(), job, tc.cfg, corpus(50))
			waitForGoroutines(t, baseline)
			assertNoSpillFiles(t, dir)
			if err == nil || out != nil {
				t.Fatalf("ran to %d outputs, %v; want an error", len(out), err)
			}
			if msg := err.Error(); !strings.Contains(msg, "string") || !strings.Contains(msg, "int64") {
				t.Errorf("error %q does not name the key and value types", msg)
			}
		})
	}
}

// spillJob is the reference word-count job used by the spill tests.
func spillJob() Job[string, string, int64, string] {
	return Job[string, string, int64, string]{Map: wordMapper, Reduce: sumReducer, Codec: stringCodec{}}
}

// TestSpillMatchesInMemory is the external-shuffle contract: identical
// outputs and core metrics with and without a (tiny) memory budget, and a
// budget small enough must actually spill.
func TestSpillMatchesInMemory(t *testing.T) {
	inputs := corpus(400)
	want, wantM := spillJob().Run(Config{Parallelism: 4}, inputs)
	sort.Strings(want)
	for _, budget := range []int64{1, 256, 4096, 1 << 20} {
		got, gotM := spillJob().Run(Config{Parallelism: 4, MemoryBudget: budget}, inputs)
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("budget %d: outputs differ from in-memory run", budget)
		}
		if gotM.KeyValuePairs != wantM.KeyValuePairs ||
			gotM.DistinctKeys != wantM.DistinctKeys ||
			gotM.MaxReducerInput != wantM.MaxReducerInput ||
			gotM.ReducerWork != wantM.ReducerWork ||
			gotM.Outputs != wantM.Outputs {
			t.Errorf("budget %d: core metrics %+v, want %+v", budget, gotM, wantM)
		}
		if budget <= 4096 && gotM.SpilledPairs == 0 {
			t.Errorf("budget %d: expected spilling, got none", budget)
		}
		if gotM.SpilledPairs > 0 && (gotM.SpillBytes == 0 || gotM.SpillFiles == 0) {
			t.Errorf("budget %d: inconsistent spill metrics %+v", budget, gotM)
		}
	}
}

// TestSpillEmptyStringKey pins the regression where a key whose encoding is
// zero bytes (the empty string under a string codec) was mistaken for the
// merger's end-of-merge sentinel, silently dropping every spilled group.
func TestSpillEmptyStringKey(t *testing.T) {
	job := Job[string, string, int64, string]{
		Map: func(line string, emit func(string, int64)) {
			emit(line, 1) // "" is a legitimate key
		},
		Reduce: sumReducer,
		Codec:  stringCodec{},
	}
	inputs := []string{"", "x", "", "x", ""}
	want, _ := job.Run(Config{Parallelism: 1}, inputs)
	got, m := job.Run(Config{Parallelism: 1, MemoryBudget: 1}, inputs)
	if m.SpilledPairs == 0 {
		t.Fatal("expected the 1-byte budget to spill")
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("spilled run dropped groups: got %q, want %q", got, want)
	}
	if m.DistinctKeys != 2 {
		t.Errorf("DistinctKeys = %d, want 2", m.DistinctKeys)
	}
}

// TestSpillManyRuns drives the run count far past the merge fan-in so the
// intermediate compaction passes execute.
func TestSpillManyRuns(t *testing.T) {
	inputs := make([]int, 20000)
	for i := range inputs {
		inputs[i] = i
	}
	job := Job[int, int, int, int]{
		Map: func(x int, emit func(int, int)) { emit(x%501, x) },
		Reduce: func(_ *Context, k int, vs []int, emit func(int)) {
			s := k
			for _, v := range vs {
				s += v
			}
			emit(s)
		},
	}
	want, _ := job.Run(Config{Parallelism: 2, Partitions: 2}, inputs)
	// ~2 partitions × 10000 pairs × ~88 bytes estimated vs a 4 KiB budget
	// yields hundreds of runs per partition.
	got, m := job.Run(Config{Parallelism: 2, Partitions: 2, MemoryBudget: 4096}, inputs)
	sort.Ints(want)
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outputs differ at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if m.SpillFiles <= 2*mergeFanIn {
		t.Fatalf("test meant to exceed the merge fan-in, created only %d runs", m.SpillFiles)
	}
}

// TestSpillFilesRemoved checks that no run files survive the job.
func TestSpillFilesRemoved(t *testing.T) {
	dir := t.TempDir()
	_, m := spillJob().Run(Config{Parallelism: 2, MemoryBudget: 512, SpillDir: dir}, corpus(300))
	if m.SpilledPairs == 0 {
		t.Fatal("expected the tiny budget to spill")
	}
	left, err := filepath.Glob(filepath.Join(dir, "sgmr-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d spill files left behind: %v", len(left), left)
	}
}

// TestSpillChain runs a two-round chain entirely under a tiny budget and
// checks the summed spill metrics surface through Chain.Total.
func TestSpillChain(t *testing.T) {
	inputs := make([]int, 500)
	for i := range inputs {
		inputs[i] = i
	}
	c := NewChain(Config{Parallelism: 2, MemoryBudget: 256})
	sums := mustRound(c, Job[int, int, int, int]{
		Map: func(x int, emit func(int, int)) { emit(x%50, x) },
		Reduce: func(_ *Context, _ int, vs []int, emit func(int)) {
			s := 0
			for _, v := range vs {
				s += v
			}
			emit(s)
		},
	}, inputs)
	mustRound(c, Job[int, bool, int, int]{
		Map: func(s int, emit func(bool, int)) { emit(s%2 == 0, s) },
		Reduce: func(_ *Context, _ bool, vs []int, emit func(int)) {
			emit(len(vs))
		},
	}, sums)
	total := c.Total()
	if total.SpilledPairs == 0 || total.SpillFiles == 0 {
		t.Errorf("chained rounds under a 256-byte budget reported no spilling: %+v", total)
	}
}

// TestSpillBadDir checks the documented failure mode: an unusable spill
// directory surfaces as a typed *EngineError at the spill stage.
func TestSpillBadDir(t *testing.T) {
	badCfg := Config{
		Parallelism:  1,
		MemoryBudget: 64,
		SpillDir:     filepath.Join(os.TempDir(), "sgmr-definitely-missing", "nested"),
	}
	_, _, err := collect(context.Background(), spillJob(), badCfg, corpus(100))
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("a run with an unusable spill dir returned %v (%T), want *EngineError", err, err)
	}
	if ee.Stage != StageSpill {
		t.Fatalf("Stage = %q, want %q", ee.Stage, StageSpill)
	}
}
