package mapreduce

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"subgraphmr/internal/failpoint"
)

// waitForGoroutines polls until the goroutine count drops back to the
// baseline — the post-failure leak check for every injected fault.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertNoSpillFiles checks that a failed run left nothing behind in its
// dedicated spill directory.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "sgmr-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d spill files left behind after failure: %v", len(left), left)
	}
}

// runExpectingEngineError runs the reference spill job under cfg and
// requires a typed *EngineError back, plus clean teardown.
func runExpectingEngineError(t *testing.T, cfg Config) *EngineError {
	t.Helper()
	baseline := runtime.NumGoroutine()
	out, _, err := collect(context.Background(), spillJob(), cfg, corpus(300))
	waitForGoroutines(t, baseline)
	if cfg.SpillDir != "" {
		assertNoSpillFiles(t, cfg.SpillDir)
	}
	if err == nil {
		t.Fatal("run with injected fault succeeded")
	}
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("error %v (%T) is not an *EngineError", err, err)
	}
	if out != nil {
		t.Fatalf("failed run returned a partial result of %d outputs", len(out))
	}
	return ee
}

func TestSpillWriteENOSPCTypedError(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Enable(failpoint.SpillWrite, "enospc"); err != nil {
		t.Fatal(err)
	}
	ee := runExpectingEngineError(t, Config{Parallelism: 2, MemoryBudget: 64, SpillDir: t.TempDir()})
	if ee.Stage != StageSpill {
		t.Errorf("Stage = %q, want %q", ee.Stage, StageSpill)
	}
	if !errors.Is(ee, syscall.ENOSPC) || !errors.Is(ee, failpoint.ErrInjected) {
		t.Errorf("cause chain %v lost ENOSPC/ErrInjected", ee)
	}
}

func TestSpillCreateInjectedError(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Enable(failpoint.SpillCreate, "error"); err != nil {
		t.Fatal(err)
	}
	ee := runExpectingEngineError(t, Config{Parallelism: 2, MemoryBudget: 64, SpillDir: t.TempDir()})
	if ee.Stage != StageSpill {
		t.Errorf("Stage = %q, want %q", ee.Stage, StageSpill)
	}
}

func TestSpillMergeInjectedError(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Enable(failpoint.SpillMerge, "error"); err != nil {
		t.Fatal(err)
	}
	ee := runExpectingEngineError(t, Config{Parallelism: 2, MemoryBudget: 64, SpillDir: t.TempDir()})
	if ee.Stage != StageSpill {
		t.Errorf("Stage = %q, want %q", ee.Stage, StageSpill)
	}
}

func TestReduceWorkerPanicRecovered(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Enable(failpoint.ReduceWorker, "panic"); err != nil {
		t.Fatal(err)
	}
	ee := runExpectingEngineError(t, Config{Parallelism: 2, SpillDir: t.TempDir()})
	if ee.Stage != StageReduce {
		t.Errorf("Stage = %q, want %q", ee.Stage, StageReduce)
	}
	if !strings.Contains(ee.Error(), "recovered panic") {
		t.Errorf("error %q does not mention the recovered panic", ee)
	}
}

func TestMapWorkerPanicRecovered(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Enable(failpoint.MapWorker, "panic"); err != nil {
		t.Fatal(err)
	}
	ee := runExpectingEngineError(t, Config{Parallelism: 2, SpillDir: t.TempDir()})
	if ee.Stage != StageMap {
		t.Errorf("Stage = %q, want %q", ee.Stage, StageMap)
	}
}

// TestOrganicReducerPanicRecovered pins user-code panics (not failpoints):
// a reducer that dereferences nil must come back as a typed error, with the
// same teardown guarantees, and the job name threaded through.
func TestOrganicReducerPanicRecovered(t *testing.T) {
	baseline := runtime.NumGoroutine()
	job := Job[string, string, int64, string]{
		Name: "boom",
		Map:  wordMapper,
		Reduce: func(_ *Context, _ string, _ []int64, _ func(string)) {
			var p *int
			_ = *p // organic panic
		},
	}
	_, _, err := collect(context.Background(), job, Config{Parallelism: 2}, corpus(50))
	waitForGoroutines(t, baseline)
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("error %v (%T) is not an *EngineError", err, err)
	}
	if ee.Stage != StageReduce || ee.Job != "boom" {
		t.Errorf("EngineError{Stage: %q, Job: %q}, want reduce/boom", ee.Stage, ee.Job)
	}
}

// TestOrganicMapperPanicRecovered is the map-side twin.
func TestOrganicMapperPanicRecovered(t *testing.T) {
	baseline := runtime.NumGoroutine()
	job := Job[string, string, int64, string]{
		Map:    func(string, func(string, int64)) { panic("mapper bug") },
		Reduce: sumReducer,
	}
	_, _, err := collect(context.Background(), job, Config{Parallelism: 3}, corpus(50))
	waitForGoroutines(t, baseline)
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("error %v (%T) is not an *EngineError", err, err)
	}
	if ee.Stage != StageMap {
		t.Errorf("Stage = %q, want %q", ee.Stage, StageMap)
	}
	if !strings.Contains(ee.Error(), "mapper bug") {
		t.Errorf("error %q lost the panic value", ee)
	}
}

// TestFailureBudgetAllowsRecoveryRun proves failpoints with a spent budget
// leave the engine healthy: after one injected failure, the very next run
// (same process, same site armed but exhausted) succeeds with correct
// output.
func TestFailureBudgetAllowsRecoveryRun(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Enable(failpoint.SpillWrite, "error*1"); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Parallelism: 2, MemoryBudget: 64, SpillDir: t.TempDir()}
	if _, _, err := collect(context.Background(), spillJob(), cfg, corpus(200)); err == nil {
		t.Fatal("first run should have hit the injected spill failure")
	}
	out, _, err := collect(context.Background(), spillJob(), cfg, corpus(200))
	if err != nil {
		t.Fatalf("second run after budget spent failed: %v", err)
	}
	want, _ := spillJob().Run(Config{Parallelism: 2}, corpus(200))
	if len(out) != len(want) {
		t.Fatalf("recovery run produced %d outputs, want %d", len(out), len(want))
	}
	assertNoSpillFiles(t, cfg.SpillDir)
}

// TestWorkerErrorOutranksCancellation: when a worker fails and the caller's
// context is cancelled in the same window, the typed worker error must win —
// a real fault must not be masked as a cancellation.
func TestWorkerErrorOutranksCancellation(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Enable(failpoint.ReduceWorker, "error"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := Job[string, string, int64, string]{
		Map: func(line string, emit func(string, int64)) {
			cancel() // cancel as soon as mapping starts
			wordMapper(line, emit)
		},
		Reduce: sumReducer,
	}
	_, _, err := collect(ctx, job, Config{Parallelism: 2}, corpus(100))
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("got %v, want the injected worker error to outrank ctx.Err()", err)
	}
}
