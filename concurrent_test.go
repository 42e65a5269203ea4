package subgraphmr

import (
	"context"
	"sync"
	"testing"
)

// TestSharedPlanConcurrentExecution pins the shared-plan mutation audit:
// one *QueryPlan is executed by many goroutines at once through Run,
// Stream and Instances, and every call must return the exact oracle
// count. Run under -race (CI's race job covers this package), any
// execution path that mutates p.opts or p.Chosen in place — instead of
// the copy-before-mutate rule — fails here.
func TestSharedPlanConcurrentExecution(t *testing.T) {
	ctx := context.Background()
	g := Gnm(120, 500, 9)
	want := CountTriangles(g)

	cases := []struct {
		name string
		opts []Option
	}{
		{"bucket", []Option{WithStrategy(StrategyBucketOriented)}},
		{"variable", []Option{WithStrategy(StrategyVariableOriented)}},
		{"cq", []Option{WithStrategy(StrategyCQOriented)}},
		{"decomposed", []Option{WithStrategy(StrategyDecomposed)}},
		{"tri-partition", []Option{WithStrategy(StrategyTrianglePartition)}},
		{"cascade", []Option{WithStrategy(StrategyTwoRound)}},
		// The adaptive cascade exercises the mid-query re-plan path, which
		// reads p.Candidates while other goroutines execute the same plan.
		{"cascade-adaptive", []Option{WithStrategy(StrategyTwoRound), WithAdaptive(), WithSkewThreshold(0.5)}},
		// A spill-path run shares the plan's spill configuration; the
		// cascade's plain jobs are the ones that spill.
		{"cascade-spill", []Option{WithStrategy(StrategyTwoRound), WithMemoryBudget(2048), WithSpillDir(t.TempDir())}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := Plan(g, Triangle(), append([]Option{
				WithTargetReducers(64), WithSeed(3),
			}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			const per = 4 // goroutines per verb
			var wg sync.WaitGroup
			errs := make(chan error, 3*per)
			counts := make(chan int64, 3*per)
			for i := 0; i < per; i++ {
				wg.Add(3)
				go func() {
					defer wg.Done()
					res, err := Run(ctx, plan)
					if err != nil {
						errs <- err
						return
					}
					counts <- res.Count
				}()
				go func() {
					defer wg.Done()
					var n int64
					if _, err := Stream(ctx, plan, func([]Node) bool { n++; return true }); err != nil {
						errs <- err
						return
					}
					counts <- n
				}()
				go func() {
					defer wg.Done()
					var n int64
					for _, err := range Instances(ctx, plan) {
						if err != nil {
							errs <- err
							return
						}
						n++
					}
					counts <- n
				}()
			}
			wg.Wait()
			close(errs)
			close(counts)
			for err := range errs {
				t.Fatal(err)
			}
			for n := range counts {
				if n != want {
					t.Fatalf("concurrent execution returned %d instances, oracle %d", n, want)
				}
			}
		})
	}
}

// TestSharedPlanConcurrentDistributed drives one shared plan through
// concurrent distributed runs (spawned worker processes) alongside local
// Stream calls on the same plan — the coordinator path builds variant
// configurations (degradation, fallback) and must copy the plan rather
// than write p.opts in place; the memoized graph payload is hit from all
// coordinators at once.
func TestSharedPlanConcurrentDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	ctx := context.Background()
	g := Gnm(60, 400, 3)
	want := CountTriangles(g)
	plan, err := Plan(g, Triangle(),
		WithStrategy(StrategyBucketOriented),
		WithTargetReducers(64), WithSeed(1), WithDistributed(2))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var wg sync.WaitGroup
	errs := make(chan error, 2*runs)
	counts := make(chan int64, 2*runs)
	for i := 0; i < runs; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := Run(ctx, plan)
			if err != nil {
				errs <- err
				return
			}
			counts <- res.Count
		}()
		go func() {
			defer wg.Done()
			// A concurrent *local* execution of the same distributed plan:
			// the worker-spawning path and the local path must not fight
			// over shared plan state. Local execution of a distributed plan
			// goes through the coordinator too, so use the fallback shape —
			// a copied plan, as the rule requires.
			lp := *plan
			lp.opts.workers, lp.opts.spawnWorkers = nil, 0
			var n int64
			if _, err := Stream(ctx, &lp, func([]Node) bool { n++; return true }); err != nil {
				errs <- err
				return
			}
			counts <- n
		}()
	}
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		t.Fatal(err)
	}
	for n := range counts {
		if n != want {
			t.Fatalf("got %d instances, oracle %d", n, want)
		}
	}
	waitForNoSpawned(t)
}
