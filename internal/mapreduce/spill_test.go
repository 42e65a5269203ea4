package mapreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
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
	job := Job[string, string, int64, string]{Map: wordMapper, Reduce: sumReducer}
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

// spillJob is the reference word-count job used by the spill tests. A
// budget spills only 8-byte keys, so it keys each word (at most 8 bytes in
// corpus) by its bytes packed into a word.
func spillJob() Job[string, uint64, int64, string] {
	return Job[string, uint64, int64, string]{
		Map: func(line string, emit func(uint64, int64)) {
			for _, w := range strings.Fields(line) {
				emit(packWord(w), 1)
			}
		},
		Reduce: func(ctx *Context, k uint64, counts []int64, emit func(string)) {
			sumReducer(ctx, unpackWord(k), counts, emit)
		},
		Codec: wordCodec{},
	}
}

func packWord(w string) uint64 {
	var b [8]byte
	copy(b[:], w)
	return binary.BigEndian.Uint64(b[:])
}

func unpackWord(k uint64) string {
	return strings.TrimRight(string(binary.BigEndian.AppendUint64(nil, k)), "\x00")
}

// TestBudgetNeedsWordKeys: under a memory budget a job whose codec encodes
// its zero key to anything but 8 bytes fails before any worker starts,
// naming the job and the key's length, and a codec whose other keys stray
// from 8 bytes fails at the first sort as a typed spill-stage error. Either
// way nothing is left behind; without a budget the same jobs run.
func TestBudgetNeedsWordKeys(t *testing.T) {
	type short struct {
		A int32
		B uint16
	}
	type long struct {
		A int64
		B int32
	}
	t.Run("[2]int64", func(t *testing.T) {
		rejectedKey(t, "pair-keyed", DefaultCodec[[2]int64, int64](), func(x int64) [2]int64 { return [2]int64{x % 7, x} }, 16)
	})
	t.Run("short struct", func(t *testing.T) {
		rejectedKey(t, "short-keyed", DefaultCodec[short, int64](), func(x int64) short { return short{int32(x % 5), uint16(x % 3)} }, 6)
	})
	t.Run("long struct", func(t *testing.T) {
		rejectedKey(t, "long-keyed", DefaultCodec[long, int64](), func(x int64) long { return long{x % 5, int32(x % 3)} }, 12)
	})
	t.Run("string", func(t *testing.T) {
		// The empty string is the zero key: it encodes to no bytes at all.
		rejectedKey(t, "string-keyed", stringCodec{}, func(x int64) string { return strconv.FormatInt(x%11, 10) }, 0)
	})
	t.Run("pipe round 2", func(t *testing.T) {
		dir := t.TempDir()
		var mapped atomic.Int64
		b := newPipeBed(300)
		b.round1.Map = func(x int64, emit func(int64, int64)) { mapped.Add(1); emit(x%7, x) }
		round2 := Job[[2]int64, [2]int64, int64, int64]{
			Name:   "pair-keyed",
			Map:    func(rx [2]int64, emit func([2]int64, int64)) { mapped.Add(1); emit(rx, rx[1]) },
			Reduce: func(_ *Context, _ [2]int64, vs []int64, emit func(int64)) { emit(int64(len(vs))) },
		}
		baseline := runtime.NumGoroutine()
		var out []int64
		rounds, err := RunPipe(context.Background(), Config{Parallelism: 2, Partitions: 2, MemoryBudget: 1 << 10, SpillDir: dir},
			b.round1, b.inputs(), round2, nil, func(n int64) bool { out = append(out, n); return true })
		waitForGoroutines(t, baseline)
		assertNoSpillFiles(t, dir)
		if err == nil || out != nil || !strings.Contains(err.Error(), `"pair-keyed"`) || !strings.Contains(err.Error(), "16 bytes") {
			t.Fatalf("a pipe whose round 2 has a 16-byte key ran to %d outputs, %v; want an error naming round 2 and the key length", len(out), err)
		}
		if n := mapped.Load(); n != 0 || rounds[0].Metrics.KeyValuePairs != 0 {
			t.Errorf("the rejected pipe mapped %d inputs, round 1 shipped %d pairs", n, rounds[0].Metrics.KeyValuePairs)
		}
	})
	t.Run("ragged", func(t *testing.T) {
		dir := t.TempDir()
		ragged := Job[int64, int64, int64, int64]{
			Name:   "ragged",
			Map:    func(x int64, emit func(int64, int64)) { emit(x%7, x) },
			Reduce: func(_ *Context, _ int64, vs []int64, emit func(int64)) { emit(int64(len(vs))) },
			Codec:  raggedCodec{},
		}
		baseline := runtime.NumGoroutine()
		_, _, err := collect(context.Background(), ragged, Config{Parallelism: 2, Partitions: 2, MemoryBudget: 1 << 10, SpillDir: dir}, counting(300))
		waitForGoroutines(t, baseline)
		assertNoSpillFiles(t, dir)
		var ee *EngineError
		if !errors.As(err, &ee) || ee.Stage != StageSpill || ee.Job != "ragged" || !strings.Contains(err.Error(), "want 8") {
			t.Fatalf("a codec with a 1-byte key returned %v, want a spill-stage *EngineError of job ragged", err)
		}
	})
}

// counting returns the inputs 0..n-1.
func counting(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i)
	}
	return in
}

// rejectedKey runs a job named name, keyed through key and encoded by
// codec, whose zero key encodes to size bytes: under a budget it must fail
// before mapping anything, naming the job and the length, with no goroutine
// or spill file left; in memory it must produce a group per distinct key.
func rejectedKey[K comparable](t *testing.T, name string, codec Codec[K, int64], key func(int64) K, size int) {
	t.Helper()
	dir := t.TempDir()
	inputs := counting(300)
	var mapped atomic.Int64
	job := Job[int64, K, int64, int64]{
		Name:   name,
		Map:    func(x int64, emit func(K, int64)) { mapped.Add(1); emit(key(x), x) },
		Reduce: func(_ *Context, _ K, vs []int64, emit func(int64)) { emit(int64(len(vs))) },
		Codec:  codec,
	}
	baseline := runtime.NumGoroutine()
	out, _, err := collect(context.Background(), job, Config{Parallelism: 2, Partitions: 2, MemoryBudget: 1 << 10, SpillDir: dir}, inputs)
	waitForGoroutines(t, baseline)
	assertNoSpillFiles(t, dir)
	if err == nil || out != nil || !strings.Contains(err.Error(), strconv.Quote(name)) || !strings.Contains(err.Error(), fmt.Sprintf(" %d bytes", size)) {
		t.Fatalf("a budgeted %d-byte-key job ran to %d outputs, %v; want an error naming the job and the key length", size, len(out), err)
	}
	if n := mapped.Load(); n != 0 {
		t.Errorf("the rejected job mapped %d inputs", n)
	}
	keys := make(map[K]bool)
	for _, x := range inputs {
		keys[key(x)] = true
	}
	if out, _ := job.Run(Config{Parallelism: 2}, inputs); len(out) != len(keys) {
		t.Errorf("in memory the %d-byte-key job produced %d groups, want %d", size, len(out), len(keys))
	}
}

// stringCodec encodes a key as its bytes, the empty key as none.
type stringCodec struct{}

func (stringCodec) AppendKey(dst []byte, k string) []byte  { return append(dst, k...) }
func (stringCodec) DecodeKey(src []byte) (string, error)   { return string(src), nil }
func (stringCodec) AppendValue(dst []byte, v int64) []byte { return wordCodec{}.AppendValue(dst, v) }
func (stringCodec) DecodeValue(src []byte) (int64, error)  { return wordCodec{}.DecodeValue(src) }

// raggedCodec encodes 0 as a word and every other key as one byte.
type raggedCodec struct{}

func (raggedCodec) AppendKey(dst []byte, k int64) []byte {
	if k == 0 {
		return binary.BigEndian.AppendUint64(dst, 0)
	}
	return append(dst, byte(k))
}
func (raggedCodec) DecodeKey(src []byte) (int64, error) { return int64(src[len(src)-1]), nil }
func (raggedCodec) AppendValue(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}
func (raggedCodec) DecodeValue(src []byte) (int64, error) {
	return int64(binary.BigEndian.Uint64(src)), nil
}

// TestSpillFileOnePerWorker: however many runs a worker writes, it keeps
// them in one spill file, so while a job delivers there is at most one file
// per reduce worker in SpillDir, and while a pipe's round 1 reduces into
// round 2 at most one per reduce worker of either round.
func TestSpillFileOnePerWorker(t *testing.T) {
	const partitions = 3
	spillFiles := func(dir string) int {
		files, err := filepath.Glob(filepath.Join(dir, "sgmr-spill-*"))
		if err != nil {
			t.Error(err)
		}
		return len(files)
	}
	t.Run("job", func(t *testing.T) {
		dir := t.TempDir()
		inputs := make([]int, 20000)
		for i := range inputs {
			inputs[i] = i
		}
		job := Job[int, int, int, int]{
			Map:    func(x int, emit func(int, int)) { emit(x%501, x) },
			Reduce: func(_ *Context, k int, vs []int, emit func(int)) { emit(k + len(vs)) },
		}
		most := 0
		m, err := job.RunStream(context.Background(), Config{Parallelism: 2, Partitions: partitions, MemoryBudget: 4096, SpillDir: dir}, inputs, func(int) bool {
			most = max(most, spillFiles(dir))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.SpillFiles <= 2*partitions*mergeFanIn {
			t.Fatalf("test meant to write many runs a worker, wrote %d runs", m.SpillFiles)
		}
		if most == 0 || most > partitions {
			t.Errorf("%d spill files at once for %d reduce workers and %d runs", most, partitions, m.SpillFiles)
		}
		assertNoSpillFiles(t, dir)
	})
	t.Run("pipe", func(t *testing.T) {
		dir := t.TempDir()
		b := newPipeBed(20000)
		// Round 2's Map runs on round 1's reduce workers, while their spill
		// files are still open and round 2's are filling.
		var calls atomic.Int64
		var most atomic.Int64
		mapf := b.round2.Map
		b.round2.Map = func(rx [2]int64, emit func(int64, int64)) {
			if calls.Add(1)%200 == 0 {
				for n := int64(spillFiles(dir)); ; {
					m := most.Load()
					if n <= m || most.CompareAndSwap(m, n) {
						break
					}
				}
			}
			mapf(rx, emit)
		}
		_, rounds, err := b.run(context.Background(), Config{Parallelism: 2, Partitions: partitions, MemoryBudget: 4096, SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := rounds[0].Metrics.SpillFiles, rounds[1].Metrics.SpillFiles
		if r1 <= 2*partitions || r2 <= 2*partitions {
			t.Fatalf("test meant to write several runs a worker in each round, wrote %d and %d", r1, r2)
		}
		if n := most.Load(); n == 0 || n > 2*partitions {
			t.Errorf("%d spill files at once for 2×%d reduce workers and %d + %d runs", n, partitions, r1, r2)
		}
		assertNoSpillFiles(t, dir)
	})
}

// TestSpillZeroKey: the zero word is a key like any other — a run that
// holds it, first in key order, must not drop or merge its group.
func TestSpillZeroKey(t *testing.T) {
	job := Job[uint64, uint64, int64, string]{
		Map: func(k uint64, emit func(uint64, int64)) { emit(k, 1) },
		Reduce: func(_ *Context, k uint64, vs []int64, emit func(string)) {
			emit(fmt.Sprintf("%d:%d", k, len(vs)))
		},
		Codec: wordCodec{},
	}
	inputs := []uint64{0, 7, 0, 7, 0, 1 << 63}
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
	if m.DistinctKeys != 3 {
		t.Errorf("DistinctKeys = %d, want 3", m.DistinctKeys)
	}
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

// TestSpillFilesRemoved checks that no spill file survives the job.
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
