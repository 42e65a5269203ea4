package difftest

import (
	"runtime"
	"testing"
	"time"

	"subgraphmr"
	"subgraphmr/internal/failpoint"
	"subgraphmr/internal/sample"
)

// waitForGoroutineBaseline polls until the goroutine count returns to the
// baseline taken before an injected fault — the per-case leak check.
func waitForGoroutineBaseline(t *testing.T, baseline int) {
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
			t.Fatalf("goroutine leak after injected fault: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosMatrix drives every chaos case sequentially (failpoints are
// process-global): each case must end in a typed error or a bit-identical
// result, with the goroutine count, spill directory and spawned-process
// count back at baseline.
func TestChaosMatrix(t *testing.T) {
	addrs := startWorkers(t, 3)
	// Let the worker goroutines (accept loops and their ctx watchers) come
	// up before any baseline is taken — they are part of the steady state,
	// not a leak.
	settled := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == settled {
			break
		} else {
			settled = n
		}
	}
	g := Graphs(7)["gnm"]
	for _, c := range ChaosCases() {
		c := c
		if c.Spawn > 0 && testing.Short() {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			defer subgraphmr.ResetFailpoints() // belt and braces on test failure
			baseline := runtime.NumGoroutine()
			if err := CheckChaos(t.Context(), g, c, 42, addrs, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			waitForGoroutineBaseline(t, baseline)
			if armed := failpoint.Active(); len(armed) != 0 {
				t.Fatalf("case left failpoints armed: %v", armed)
			}
		})
	}
}

// TestChaosRecoveryBetweenCases pins the engine's health after a whole
// injected sweep: with everything disarmed, the same plan that failed under
// injection runs clean and matches the oracle.
func TestChaosRecoveryBetweenCases(t *testing.T) {
	g := Graphs(7)["gnm"]
	c := ChaosCase{
		Name:         "recovery-probe",
		Failpoints:   "mr.spill.write=enospc",
		Strategy:     subgraphmr.StrategyTwoRound,
		Sample:       sample.Triangle(),
		MemoryBudget: 2048,
		Expect:       ExpectTypedError,
	}
	if err := CheckChaos(t.Context(), g, c, 42, nil, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	// Disarmed rerun of the identical injected case must now reach parity.
	c.Failpoints = ""
	c.Name = "recovery-probe-clean"
	c.Expect = ExpectParity
	if err := CheckChaos(t.Context(), g, c, 42, nil, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
