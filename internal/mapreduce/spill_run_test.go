package mapreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// wordCodec is a reflection-free codec for the run-level tests: 8-byte
// big-endian keys and values, so what the allocation pins measure is the
// spiller and not DefaultCodec's boxing.
type wordCodec struct{}

func (wordCodec) AppendKey(dst []byte, k uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, k)
}
func (wordCodec) DecodeKey(src []byte) (uint64, error) { return binary.BigEndian.Uint64(src), nil }
func (wordCodec) AppendValue(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}
func (wordCodec) DecodeValue(src []byte) (int64, error) {
	return int64(binary.BigEndian.Uint64(src)), nil
}

// wordSpiller returns a spiller that has written runs runs of perRun pairs
// each, every key holding two values per run and recurring in every run.
func wordSpiller(t testing.TB, share int64, runs, perRun int) *spiller[uint64, int64] {
	t.Helper()
	s := newSpiller[uint64, int64](wordCodec{}, t.TempDir(), share)
	t.Cleanup(s.cleanup)
	for r := 0; r < runs; r++ {
		for i := 0; i < perRun; i++ {
			s.buf = append(s.buf, pair[uint64, int64]{uint64(i / 2), int64(r*perRun + i)})
		}
		if err := s.spill(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestMergeReadBuffersWithinShare pins the merge side of the budget: the
// read buffers of one merge pass together stay within the worker's share,
// down to the per-run floor.
func TestMergeReadBuffersWithinShare(t *testing.T) {
	for _, share := range []int64{1, 16 << 10, 100 << 10, 512 << 10, 64 << 20} {
		for _, runs := range []int{1, 5, mergeFanIn} {
			s := wordSpiller(t, share, runs, 4)
			m, err := newMerger(s.paths, share)
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, c := range m.all {
				total += int64(c.br.Size())
			}
			m.close()
			if limit := max(share, int64(runs)*minRunBuf); total > limit {
				t.Errorf("share %d, %d runs: read buffers total %d bytes, want <= %d", share, runs, total, limit)
			}
		}
	}
}

// tearRun damages a run file in one of the ways a crashed or failing disk
// can: the merge must answer each with a read error.
var tearRun = map[string]func(t *testing.T, path string){
	"truncated mid-record": func(t *testing.T, path string) {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-3); err != nil {
			t.Fatal(err)
		}
	},
	"length beyond the file": func(t *testing.T, path string) {
		overwrite(t, path, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // klen ≈ 4 GiB
	},
	"overlong varint": func(t *testing.T, path string) {
		overwrite(t, path, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	},
}

func overwrite(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, 0); err != nil {
		t.Fatal(err)
	}
}

// TestTornRunIsReadError: a damaged run file surfaces from mergeReduce as
// the "reading spill run" error — not a panic, not an allocation sized by
// the garbage — and the files are still removed.
func TestTornRunIsReadError(t *testing.T) {
	for name, tear := range tearRun {
		t.Run(name, func(t *testing.T) {
			s := wordSpiller(t, 1<<20, 3, 40)
			tear(t, s.paths[1])
			_, _, err := s.mergeReduce(func(uint64, []int64) bool { return true })
			if err == nil || !strings.Contains(err.Error(), "reading spill run") {
				t.Fatalf("mergeReduce over a torn run returned %v, want a reading-spill-run error", err)
			}
			s.cleanup()
			assertNoSpillFiles(t, s.dir)
		})
	}
}

// TestTornRunTypedError drives the same fault through a whole job: the
// mapper truncates a committed run while the round is still mapping, and
// RunStream must come back with a typed spill-stage error and a clean
// spill directory.
func TestTornRunTypedError(t *testing.T) {
	dir := t.TempDir()
	baseline := runtime.NumGoroutine()
	const last = "the-last-line"
	job := spillJob()
	job.Map = func(line string, emit func(string, int64)) {
		if line != last {
			wordMapper(line, emit)
			return
		}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			runs, _ := filepath.Glob(filepath.Join(dir, "sgmr-spill-*"))
			for _, p := range runs {
				if st, err := os.Stat(p); err == nil && st.Size() > 1 {
					os.Truncate(p, st.Size()-1)
					return
				}
			}
		}
		t.Error("no run file appeared to tear")
	}
	_, err := job.RunStream(context.Background(),
		Config{Parallelism: 1, MemoryBudget: 64, SpillDir: dir},
		append(corpus(400), last), func(string) bool { return true })
	waitForGoroutines(t, baseline)
	assertNoSpillFiles(t, dir)
	var ee *EngineError
	if !errors.As(err, &ee) || ee.Stage != StageSpill {
		t.Fatalf("job over a torn run returned %v, want *EngineError{Stage: %q}", err, StageSpill)
	}
}

// TestWarmSpillAllocatesOnlyTheFile pins the write side of the allocation
// win: every scratch a spill needs lives on the spiller, so once warmed a
// run costs what creating (and removing) its file costs.
func TestWarmSpillAllocatesOnlyTheFile(t *testing.T) {
	dir := t.TempDir()
	file := testing.AllocsPerRun(20, func() {
		f, err := os.CreateTemp(dir, "sgmr-spill-*.run")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		os.Remove(f.Name())
	})
	s := newSpiller[uint64, int64](wordCodec{}, dir, 1<<20)
	batch := make([]pair[uint64, int64], 256)
	for i := range batch {
		batch[i] = pair[uint64, int64]{uint64(i % 50), int64(i)}
	}
	run := func() {
		if err := s.add(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.spill(); err != nil {
			t.Fatal(err)
		}
		os.Remove(s.paths[0])
		s.paths = s.paths[:0]
	}
	if got := testing.AllocsPerRun(20, run); got > file {
		t.Errorf("a warmed spill allocates %.0f objects, creating its file alone %.0f", got, file)
	}
}

// TestMergeAllocationsIndependentOfValues pins the read side: a merge
// allocates per run (descriptor, read buffer, cursor), not per value.
func TestMergeAllocationsIndependentOfValues(t *testing.T) {
	const runs = 6
	mergeAllocs := func(perRun int) float64 {
		// AllocsPerRun(1, f) calls f twice (one warm-up); a merge consumes
		// its runs, so each call gets its own.
		prepared := []*spiller[uint64, int64]{wordSpiller(t, 1<<20, runs, perRun), wordSpiller(t, 1<<20, runs, perRun)}
		var sum int64
		return testing.AllocsPerRun(1, func() {
			s := prepared[0]
			prepared = prepared[1:]
			_, _, err := s.mergeReduce(func(_ uint64, vs []int64) bool {
				sum += int64(len(vs))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := mergeAllocs(500), mergeAllocs(4000)
	if small != large {
		t.Errorf("merging %d runs allocates %.0f objects for 500 values a run but %.0f for 4000", runs, small, large)
	}
}

// budgetedMatchesInMemory runs one job over pairs under every combination
// of budget and partition count, and holds each budgeted run to the
// in-memory run of the same shape: same output multiset, same core metrics,
// spill metrics that add up, no file left. A nil codec means DefaultCodec.
func budgetedMatchesInMemory[K comparable](t *testing.T, pairs []pair[K, int64], codec Codec[K, int64]) bool {
	t.Helper()
	type out struct {
		Key K
		Sum int64
	}
	job := Job[pair[K, int64], K, int64, out]{
		Map: func(in pair[K, int64], emit func(K, int64)) { emit(in.key, in.val) },
		Reduce: func(_ *Context, k K, vs []int64, emit func(out)) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(out{k, sum})
		},
		Codec: codec,
	}
	ok := true
	for _, np := range []int{1, 3} {
		run := func(budget int64) (map[out]int, Metrics) {
			dir := t.TempDir()
			outs, m := job.Run(Config{Parallelism: 1, Partitions: np, MemoryBudget: budget, SpillDir: dir}, pairs)
			assertNoSpillFiles(t, dir)
			set := make(map[out]int)
			for _, o := range outs {
				set[o]++
			}
			return set, m
		}
		want, wantM := run(0)
		for _, budget := range []int64{1, 1 << 10, 1 << 30} {
			got, gotM := run(budget)
			label := fmt.Sprintf("budget %d, %d partitions", budget, np)
			if len(got) != len(want) {
				t.Errorf("%s: %d distinct outputs, want %d", label, len(got), len(want))
				ok = false
			}
			for o, n := range want {
				if got[o] != n {
					t.Errorf("%s: output %+v ×%d, want ×%d", label, o, got[o], n)
					ok = false
				}
			}
			if gotM.KeyValuePairs != wantM.KeyValuePairs || gotM.DistinctKeys != wantM.DistinctKeys ||
				gotM.MaxReducerInput != wantM.MaxReducerInput || gotM.Outputs != wantM.Outputs {
				t.Errorf("%s: core metrics %+v, want %+v", label, gotM, wantM)
				ok = false
			}
			// Every pair shipped to a worker that spilled is spilled: all of
			// them under a one-byte budget, none under one nothing crosses,
			// and with one partition nothing in between.
			switch {
			case budget == 1 && gotM.SpilledPairs != gotM.KeyValuePairs,
				budget == 1<<30 && gotM.SpilledPairs != 0,
				np == 1 && gotM.SpilledPairs != 0 && gotM.SpilledPairs != gotM.KeyValuePairs,
				gotM.SpilledPairs < 0 || gotM.SpilledPairs > gotM.KeyValuePairs:
				t.Errorf("%s: SpilledPairs = %d of %d shipped", label, gotM.SpilledPairs, gotM.KeyValuePairs)
				ok = false
			}
		}
	}
	return ok
}

// TestBudgetedMatchesInMemoryQuick is the sort-at-spill contract on the
// keys a prefix sort can get wrong: keys that agree beyond the 8-byte
// prefix, the empty key, keys that are zero-padded prefixes of one another
// (through a string Codec: custom codecs can still produce variable-length
// keys), negative and extreme integers, and struct keys on both sides of
// the prefix length through DefaultCodec.
func TestBudgetedMatchesInMemoryQuick(t *testing.T) {
	t.Run("string", func(t *testing.T) {
		quickBudgeted(t, stringCodec{}, []string{
			"", "ab", "ab\x00", "ab\x00\x00", "\x00", "\x00\x00",
			"abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefghij", "abcdefgh\xff",
			"a-shared-prefix-well-past-eight-bytes/A", "a-shared-prefix-well-past-eight-bytes/B",
			"a-shared-prefix-well-past-eight-bytes/", "zzzzzzzzz",
		}, func(rng *rand.Rand) string {
			b := make([]byte, rng.Intn(12))
			for i := range b {
				b[i] = "ab\x00"[rng.Intn(3)]
			}
			return string(b)
		})
	})
	t.Run("int64", func(t *testing.T) {
		quickBudgeted(t, nil, []int64{0, 1, -1, 255, 256, -256, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64},
			(*rand.Rand).Int63)
	})
	t.Run("short struct", func(t *testing.T) {
		type key struct {
			A int32
			B uint16
		}
		quickBudgeted(t, nil, []key{{}, {A: -1}, {B: 1}, {A: 1, B: 1}, {A: math.MinInt32, B: math.MaxUint16}},
			func(rng *rand.Rand) key { return key{A: int32(rng.Intn(5)) - 2, B: uint16(rng.Intn(3))} })
	})
	t.Run("long struct", func(t *testing.T) {
		type key struct {
			A int64
			B int32
		}
		quickBudgeted(t, nil, []key{{}, {B: 1}, {B: -1}, {A: 7}, {A: 7, B: 1}, {A: 7, B: 1 << 24}, {A: -7, B: 1}},
			func(rng *rand.Rand) key { return key{A: 7, B: int32(rng.Intn(1 << 10))} })
	})
}

// quickBudgeted checks budgetedMatchesInMemory on seeded pair sequences
// that lean on the pool's adversarial keys and fill in with generated ones.
func quickBudgeted[K comparable](t *testing.T, codec Codec[K, int64], pool []K, gen func(*rand.Rand) K) {
	t.Helper()
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pairs := make([]pair[K, int64], 1+rng.Intn(200))
		for i := range pairs {
			k := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				k = gen(rng)
			}
			pairs[i] = pair[K, int64]{k, rng.Int63n(2001) - 1000}
		}
		return budgetedMatchesInMemory(t, pairs, codec)
	}, &quick.Config{MaxCount: 8})
	if err != nil {
		t.Error(err)
	}
}
