package mapreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"subgraphmr/internal/failpoint"
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
			var m merger
			if err := m.reset(s.f, s.runs, share); err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, c := range m.all {
				total += int64(len(c.buf))
			}
			if limit := max(share, int64(runs)*minRunBuf); total > limit {
				t.Errorf("share %d, %d runs: read buffers total %d bytes, want <= %d", share, runs, total, limit)
			}
		}
	}
}

// tearRun damages a worker's spill file in one of the ways a crashed or
// failing disk can; the merge must answer each with a read error. runs are
// the file's spans.
var tearRun = map[string]func(t *testing.T, path string, runs []span){
	"file truncated inside its last run": func(t *testing.T, path string, _ []span) {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-3); err != nil {
			t.Fatal(err)
		}
	},
	"value count past its span in a middle run": func(t *testing.T, path string, runs []span) {
		// Within the file but not within the run: a span-blind length check
		// would pass it and read into the next run.
		overwrite(t, path, runs[1].off+8, binary.AppendUvarint(nil, uint64(runs[1].n)))
	},
	"overlong varint": func(t *testing.T, path string, runs []span) {
		overwrite(t, path, runs[1].off+8, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	},
	"value count beyond the file": func(t *testing.T, path string, runs []span) {
		overwrite(t, path, runs[0].off+8, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // ≈ 2^32 values
	},
	"file truncated before its last run": func(t *testing.T, path string, runs []span) {
		// The last run's span starts at the end of the file: a cursor that
		// took the first empty read for the run's end would drop it.
		if err := os.Truncate(path, runs[len(runs)-1].off); err != nil {
			t.Fatal(err)
		}
	},
}

func overwrite(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestTornRunIsReadError: a damaged run surfaces from mergeReduce as the
// "reading spill run" error — not a panic, not an allocation sized by the
// garbage — and cleanup still removes the file.
func TestTornRunIsReadError(t *testing.T) {
	for name, tear := range tearRun {
		t.Run(name, func(t *testing.T) {
			s := wordSpiller(t, 1<<20, 3, 40)
			tear(t, s.f.Name(), s.runs)
			_, _, err := s.mergeReduce(func(uint64, []int64) bool { return true })
			if err == nil || !strings.Contains(err.Error(), "reading spill run") ||
				!errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errRunVarint) {
				t.Fatalf("mergeReduce over a torn run returned %v, want a reading-spill-run error", err)
			}
			s.cleanup()
			assertNoSpillFiles(t, s.dir)
		})
	}
}

// TestTornRunTypedError drives a torn run through a whole job: the mapper
// corrupts the first run's value count while the round is still mapping
// (the worker only ever appends, so the damage stays), and RunStream must
// come back with a typed spill-stage error and a clean spill directory.
func TestTornRunTypedError(t *testing.T) {
	dir := t.TempDir()
	baseline := runtime.NumGoroutine()
	const last = 1 << 20
	job := Job[uint64, uint64, int64, int64]{
		Map: func(x uint64, emit func(uint64, int64)) {
			if x != last {
				emit(x%97, int64(x))
				return
			}
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				files, _ := filepath.Glob(filepath.Join(dir, "sgmr-spill-*"))
				for _, p := range files {
					if st, err := os.Stat(p); err == nil && st.Size() >= 12 {
						overwrite(t, p, 8, []byte{0xff, 0xff, 0xff, 0x0f}) // ≈ 2^28 values
						return
					}
				}
			}
			t.Error("no spill file appeared to tear")
		},
		Reduce: func(_ *Context, _ uint64, vs []int64, emit func(int64)) { emit(int64(len(vs))) },
		Codec:  wordCodec{},
	}
	inputs := make([]uint64, 401)
	for i := range inputs[:400] {
		inputs[i] = uint64(i)
	}
	inputs[400] = last
	_, err := job.RunStream(context.Background(),
		Config{Parallelism: 1, MemoryBudget: 64, SpillDir: dir}, inputs, func(int64) bool { return true })
	waitForGoroutines(t, baseline)
	assertNoSpillFiles(t, dir)
	var ee *EngineError
	if !errors.As(err, &ee) || ee.Stage != StageSpill || !strings.Contains(err.Error(), "reading spill run") {
		t.Fatalf("job over a torn run returned %v, want a reading-spill-run *EngineError{Stage: %q}", err, StageSpill)
	}
}

// TestWarmSpillAllocatesOnlyTheFile pins the write side of the allocation
// win: a worker's runs share its one spill file and every scratch a spill
// needs lives on the spiller, so once the first run has created the file a
// warmed worker's later runs allocate nothing.
func TestWarmSpillAllocatesOnlyTheFile(t *testing.T) {
	s := newSpiller[uint64, int64](wordCodec{}, t.TempDir(), 1<<20)
	t.Cleanup(s.cleanup)
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
		s.runs = s.runs[:0]
	}
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Errorf("a warmed spill allocates %.0f objects, want 0", got)
	}
}

// TestSpillCreateFiresAtEveryRun: the spill file is created once, but the
// mr.spill.create site is still evaluated at the start of every run, for
// spill and compaction alike, so a fault armed after a worker's first run
// fails its next one as a creating-spill-file error, and cleanup still
// removes the file.
func TestSpillCreateFiresAtEveryRun(t *testing.T) {
	arm := func(t *testing.T) {
		t.Cleanup(failpoint.Reset)
		if err := failpoint.Enable(failpoint.SpillCreate, "enospc"); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), "creating spill file") {
			t.Fatalf("%s under mr.spill.create=enospc returned %v, want a creating-spill-file ENOSPC", what, err)
		}
	}
	t.Run("spill", func(t *testing.T) {
		s := wordSpiller(t, 1<<20, 1, 40)
		arm(t)
		s.buf = append(s.buf, pair[uint64, int64]{1, 1})
		check(t, "the second run", s.spill())
		if len(s.runs) != 1 || s.written != 1 {
			t.Errorf("after the failed run: %d runs, %d written; want the first run alone", len(s.runs), s.written)
		}
		// The run written before the fault is still whole.
		failpoint.Reset()
		var groups int
		if _, _, err := s.mergeReduce(func(uint64, []int64) bool { groups++; return true }); err != nil || groups != 20 {
			t.Errorf("merging the run written before the fault: %d groups, %v; want 20, nil", groups, err)
		}
		s.cleanup()
		assertNoSpillFiles(t, s.dir)
	})
	t.Run("compaction", func(t *testing.T) {
		s := wordSpiller(t, 1<<20, mergeFanIn+1, 4)
		arm(t)
		_, _, err := s.mergeReduce(func(uint64, []int64) bool { return true })
		check(t, "a merge that must compact first", err)
		s.cleanup()
		assertNoSpillFiles(t, s.dir)
	})
}

// mergeAllocs reports the objects one mergeReduce allocates over spillers
// that prepare makes afresh. AllocsPerRun(1, f) calls f twice (one
// warm-up), and a merge consumes its spiller, so each call gets its own.
func mergeAllocs(t *testing.T, prepare func() *spiller[uint64, int64]) float64 {
	t.Helper()
	prepared := []*spiller[uint64, int64]{prepare(), prepare()}
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

// TestMergeAllocationsIndependentOfValues pins the read side: a merge
// allocates per pass, not per value.
func TestMergeAllocationsIndependentOfValues(t *testing.T) {
	const runs = 6
	small := mergeAllocs(t, func() *spiller[uint64, int64] { return wordSpiller(t, 1<<20, runs, 500) })
	large := mergeAllocs(t, func() *spiller[uint64, int64] { return wordSpiller(t, 1<<20, runs, 4000) })
	if small != large {
		t.Errorf("merging %d runs allocates %.0f objects for 500 values a run but %.0f for 4000", runs, small, large)
	}
}

// TestMergeAllocationsIndependentOfRuns: nor per run — the cursors and
// their read buffers are one allocation each, whatever the fan-in. Every
// key lives in one run, so the groups are the same size at either count.
func TestMergeAllocationsIndependentOfRuns(t *testing.T) {
	disjoint := func(runs int) func() *spiller[uint64, int64] {
		return func() *spiller[uint64, int64] {
			s := newSpiller[uint64, int64](wordCodec{}, t.TempDir(), 1<<20)
			t.Cleanup(s.cleanup)
			for r := range runs {
				for i := range 400 {
					s.buf = append(s.buf, pair[uint64, int64]{uint64(r<<16 | i/2), int64(i)})
				}
				if err := s.spill(); err != nil {
					t.Fatal(err)
				}
			}
			return s
		}
	}
	few, many := mergeAllocs(t, disjoint(6)), mergeAllocs(t, disjoint(30))
	if many > few {
		t.Errorf("merging 30 runs allocates %.0f objects, merging 6 %.0f", many, few)
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
// keys a word sort can get wrong: negative and extreme integers of every
// width DefaultCodec widens to a word, and 8-byte struct and array keys
// through DefaultCodec's encoding/binary path.
func TestBudgetedMatchesInMemoryQuick(t *testing.T) {
	t.Run("int64", func(t *testing.T) {
		quickBudgeted(t, nil, []int64{0, 1, -1, 255, 256, -256, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64},
			(*rand.Rand).Int63)
	})
	t.Run("int", func(t *testing.T) {
		quickBudgeted(t, nil, []int{0, 1, -1, 1 << 40, -(1 << 40), math.MaxInt, math.MinInt},
			func(rng *rand.Rand) int { return int(rng.Uint64()) })
	})
	t.Run("int8", func(t *testing.T) {
		quickBudgeted(t, nil, []int8{0, 1, -1, math.MaxInt8, math.MinInt8},
			func(rng *rand.Rand) int8 { return int8(rng.Intn(256) - 128) })
	})
	t.Run("int32", func(t *testing.T) {
		quickBudgeted(t, nil, []int32{0, 1, -1, 1 << 16, -(1 << 16), math.MaxInt32, math.MinInt32},
			func(rng *rand.Rand) int32 { return int32(rng.Uint32()) })
	})
	t.Run("uint8", func(t *testing.T) {
		quickBudgeted(t, nil, []uint8{0, 1, 0x7f, 0x80, math.MaxUint8},
			func(rng *rand.Rand) uint8 { return uint8(rng.Intn(256)) })
	})
	t.Run("uint64", func(t *testing.T) {
		quickBudgeted(t, nil, []uint64{0, 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64},
			(*rand.Rand).Uint64)
	})
	t.Run("struct", func(t *testing.T) {
		type key struct {
			A int32
			B uint16
			C int16
		}
		quickBudgeted(t, nil, []key{{}, {A: -1}, {B: 1}, {A: 1, B: 1}, {C: -1}, {A: math.MinInt32, B: math.MaxUint16, C: math.MaxInt16}},
			func(rng *rand.Rand) key {
				return key{A: int32(rng.Intn(5)) - 2, B: uint16(rng.Intn(3)), C: int16(rng.Intn(3)) - 1}
			})
	})
	t.Run("array", func(t *testing.T) {
		quickBudgeted(t, nil, [][2]int32{{}, {0, 1}, {0, -1}, {7, 0}, {7, 1}, {7, 1 << 24}, {-7, 1}},
			func(rng *rand.Rand) [2]int32 { return [2]int32{7, int32(rng.Intn(1 << 10))} })
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
