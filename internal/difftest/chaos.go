package difftest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"subgraphmr"
	"subgraphmr/internal/distrib"
	"subgraphmr/internal/failpoint"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
)

// The chaos matrix: every failpoint site driven through representative
// strategies, in-memory and spilling, local and distributed, asserting the
// engine's failure contract — the run either produces instances
// bit-identical to an uninjected oracle, or fails with a typed
// *subgraphmr.EngineError; it never panics, never leaks (goroutines, spill
// files, worker processes), and never returns a silent partial result.
//
// Failpoints are process-global, so chaos cases must run sequentially —
// CheckChaos arms and disarms the registry itself and would cross-inject
// into a concurrent case.

// ChaosExpect narrows the acceptable outcome of one chaos case.
type ChaosExpect int

const (
	// ExpectEither accepts both contract-honoring outcomes.
	ExpectEither ChaosExpect = iota
	// ExpectTypedError requires the injected fault to surface as a typed
	// engine error (local faults with no redundancy to absorb them).
	ExpectTypedError
	// ExpectParity requires a bit-identical result (delay faults, and
	// distributed faults the retry/degrade ladder must absorb).
	ExpectParity
)

func (e ChaosExpect) String() string {
	switch e {
	case ExpectTypedError:
		return "typed-error"
	case ExpectParity:
		return "parity"
	}
	return "either"
}

// ChaosCase is one cell of the chaos matrix.
type ChaosCase struct {
	// Name labels the case (test name and failure messages).
	Name string
	// Failpoints is the failpoint.EnableSpecs list armed for the injected
	// run only — the oracle runs disarmed.
	Failpoints string
	// WorkerEnv, when set, additionally ships failpoint specs to spawned
	// worker processes through the SGMR_FAILPOINTS environment variable
	// (worker-side injection; the coordinator process stays clean).
	WorkerEnv string
	Strategy  subgraphmr.PlanStrategy
	Sample    *sample.Sample
	// MemoryBudget > 0 forces the external shuffle of a strategy that
	// runs plain jobs — the cascade; the spill sites are unreachable
	// without it. CheckChaos fails a budgeted case whose oracle never
	// spilled.
	MemoryBudget int64
	// Workers > 0 runs distributed over that many in-process wire-protocol
	// workers; Spawn > 0 forks real worker processes instead.
	Workers int
	Spawn   int
	Expect  ChaosExpect
}

// ChaosCases is the matrix the chaos difftest (and the CI chaos job) runs.
// Local faults with nothing to absorb them must fail typed; delay-only
// faults and coordinator-side distributed faults must reach parity through
// the retry/degrade ladder; worker-side distributed faults degrade to local
// execution, which in-process workers share a registry with (typed error)
// and spawned workers do not (parity).
func ChaosCases() []ChaosCase {
	return []ChaosCase{
		// Local spill-path faults: no redundancy, must be typed errors. The
		// spill cases run the cascade, whose plain jobs are the ones a
		// budget makes spill.
		{Name: "local/spill-create-enospc", Failpoints: "mr.spill.create=enospc",
			Strategy: subgraphmr.StrategyTwoRound, Sample: sample.Triangle(), MemoryBudget: 2048, Expect: ExpectTypedError},
		{Name: "local/spill-write-enospc", Failpoints: "mr.spill.write=enospc",
			Strategy: subgraphmr.StrategyTwoRound, Sample: sample.Triangle(), MemoryBudget: 2048, Expect: ExpectTypedError},
		{Name: "local/spill-merge-error", Failpoints: "mr.spill.merge=error",
			Strategy: subgraphmr.StrategyTwoRound, Sample: sample.Triangle(), MemoryBudget: 2048, Expect: ExpectTypedError},
		// Armed spill site, in-memory run: the site is never reached.
		{Name: "local/spill-unreached-in-memory", Failpoints: "mr.spill.write=error",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Expect: ExpectParity},
		// Delay mode: slower, bit-identical.
		{Name: "local/spill-write-delay", Failpoints: "mr.spill.write=delay:2ms",
			Strategy: subgraphmr.StrategyTwoRound, Sample: sample.Triangle(), MemoryBudget: 2048, Expect: ExpectParity},
		// Worker faults, both flavors, both stages.
		{Name: "local/map-panic", Failpoints: "mr.map=panic",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Expect: ExpectTypedError},
		{Name: "local/map-error-spill", Failpoints: "mr.map=error",
			Strategy: subgraphmr.StrategyTwoRound, Sample: sample.Triangle(), MemoryBudget: 2048, Expect: ExpectTypedError},
		{Name: "local/reduce-panic-spill", Failpoints: "mr.reduce=panic",
			Strategy: subgraphmr.StrategyTwoRound, Sample: sample.Triangle(), MemoryBudget: 2048, Expect: ExpectTypedError},
		{Name: "local/reduce-error", Failpoints: "mr.reduce=error",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Expect: ExpectTypedError},
		{Name: "local/reduce-panic-once", Failpoints: "mr.reduce=panic*1",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Expect: ExpectTypedError},

		// Distributed, coordinator-side transport faults: the retry/degrade
		// ladder must absorb them all the way to parity.
		{Name: "dist/dial-error-unlimited", Failpoints: "distrib.dial=error",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Workers: 3, Expect: ExpectParity},
		{Name: "dist/dial-error-twice", Failpoints: "distrib.dial=error*2",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Workers: 3, Expect: ExpectParity},
		{Name: "dist/frame-write-corrupt-once", Failpoints: "distrib.frame.write=corrupt*1",
			Strategy: subgraphmr.StrategyTrianglePartition, Sample: sample.Triangle(), Workers: 3, Expect: ExpectParity},
		{Name: "dist/frame-write-error-twice", Failpoints: "distrib.frame.write=error*2",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Workers: 3, Expect: ExpectParity},
		{Name: "dist/frame-read-error-unlimited", Failpoints: "distrib.frame.read=error",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Workers: 3, Expect: ExpectParity},
		{Name: "dist/frame-read-error-spill", Failpoints: "distrib.frame.read=error",
			Strategy: subgraphmr.StrategyTwoRound, Sample: sample.Triangle(), MemoryBudget: 2048, Workers: 3, Expect: ExpectParity},
		// Worker-side engine fault with in-process workers: the shared
		// registry means the degraded local run is injected too, so the
		// typed error must surface end to end — with no partial result.
		{Name: "dist/reduce-error-shared-registry", Failpoints: "mr.reduce=error",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Workers: 3, Expect: ExpectTypedError},

		// Spawned worker processes: real process teardown under faults.
		{Name: "spawn/frame-read-error-once", Failpoints: "distrib.frame.read=error*1",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Spawn: 2, Expect: ExpectParity},
		// Worker-side injection via the inherited environment: every worker
		// job fails in-band, the coordinator degrades to local execution —
		// which is clean, because the parent process is not armed.
		{Name: "spawn/worker-env-reduce-error", WorkerEnv: "mr.reduce=error",
			Strategy: subgraphmr.StrategyBucketOriented, Sample: sample.TwoPath(), Spawn: 2, Expect: ExpectParity},
	}
}

// CheckChaos runs one chaos case: an uninjected oracle run, then the
// injected run with the case's failpoints armed, and verdicts the outcome
// against the failure contract. workerAddrs supplies the in-process worker
// addresses for Workers cases. spillDir is a dedicated directory the
// injected run spills into; CheckChaos asserts it is empty afterwards, and
// that spawned worker processes are reaped. (Goroutine-baseline assertions
// belong to the caller, around this call.)
func CheckChaos(ctx context.Context, g *graph.Graph, c ChaosCase, seed uint64, workerAddrs []string, spillDir string) error {
	label := "chaos/" + c.Name
	base := []subgraphmr.Option{
		subgraphmr.WithStrategy(c.Strategy),
		subgraphmr.WithSeed(seed),
		subgraphmr.WithTargetReducers(64),
	}
	if c.MemoryBudget > 0 {
		base = append(base, subgraphmr.WithMemoryBudget(c.MemoryBudget), subgraphmr.WithSpillDir(spillDir))
	}

	// Oracle: same plan, no injection, always local (the distributed run's
	// contract is parity with exactly this).
	oraclePlan, err := subgraphmr.Plan(g, c.Sample, base...)
	if err != nil {
		return fmt.Errorf("%s: oracle plan: %w", label, err)
	}
	oracle, err := subgraphmr.Run(ctx, oraclePlan)
	if err != nil {
		return fmt.Errorf("%s: oracle run: %w", label, err)
	}
	if c.MemoryBudget > 0 {
		var spilled int64
		for _, j := range oracle.Jobs {
			spilled += j.Metrics.SpillFiles
		}
		if spilled == 0 {
			return fmt.Errorf("%s: the oracle never spilled under budget %d — the spill sites are unreachable", label, c.MemoryBudget)
		}
	}

	opts := append([]subgraphmr.Option(nil), base...)
	switch {
	case c.Workers > 0:
		if len(workerAddrs) < c.Workers {
			return fmt.Errorf("%s: case wants %d workers, harness started %d", label, c.Workers, len(workerAddrs))
		}
		opts = append(opts, subgraphmr.WithWorkers(workerAddrs[:c.Workers]),
			subgraphmr.WithWorkerTimeout(2*time.Second))
	case c.Spawn > 0:
		opts = append(opts, subgraphmr.WithDistributed(c.Spawn),
			subgraphmr.WithWorkerTimeout(2*time.Second))
	}
	injectedPlan, err := subgraphmr.Plan(g, c.Sample, opts...)
	if err != nil {
		return fmt.Errorf("%s: injected plan: %w", label, err)
	}

	// Arm. WorkerEnv specs travel to spawned children via the environment;
	// the parent's registry is only armed with c.Failpoints.
	if c.WorkerEnv != "" {
		os.Setenv(failpoint.EnvVar, c.WorkerEnv)
		defer os.Unsetenv(failpoint.EnvVar)
	}
	if c.Failpoints != "" {
		if err := subgraphmr.EnableFailpoints(c.Failpoints); err != nil {
			return fmt.Errorf("%s: arming failpoints: %w", label, err)
		}
	}
	res, runErr := subgraphmr.Run(ctx, injectedPlan)
	subgraphmr.ResetFailpoints()

	// Teardown checks before any verdict: whatever the outcome, nothing may
	// leak. Spawned worker reaping is asynchronous; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for distrib.LiveSpawned() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %d spawned worker process(es) still alive after the run", label, distrib.LiveSpawned())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if spillDir != "" {
		left, gerr := filepath.Glob(filepath.Join(spillDir, "sgmr-spill-*"))
		if gerr != nil {
			return gerr
		}
		if len(left) != 0 {
			return fmt.Errorf("%s: %d orphan spill file(s): %v", label, len(left), left)
		}
	}

	// Verdict.
	if runErr != nil {
		var ee *subgraphmr.EngineError
		if !errors.As(runErr, &ee) {
			return fmt.Errorf("%s: failed with an untyped error %v (%T), want *EngineError", label, runErr, runErr)
		}
		if res != nil {
			return fmt.Errorf("%s: failed run returned a non-nil result (silent partial result)", label)
		}
		if c.Expect == ExpectParity {
			return fmt.Errorf("%s: expected parity, got typed error %v", label, runErr)
		}
		return nil
	}
	if c.Expect == ExpectTypedError {
		return fmt.Errorf("%s: expected a typed error, run succeeded with %d instances", label, res.Count)
	}
	// Success must mean bit-identical instances.
	want := make(map[string]bool, len(oracle.Instances))
	for _, phi := range oracle.Instances {
		want[c.Sample.Key(phi)] = true
	}
	got := make([]string, 0, len(res.Instances))
	for _, phi := range res.Instances {
		got = append(got, c.Sample.Key(phi))
	}
	if err := compareInstances(label, want, got); err != nil {
		return err
	}
	if res.Count != oracle.Count {
		return fmt.Errorf("%s: injected Count %d, oracle %d", label, res.Count, oracle.Count)
	}
	return nil
}
