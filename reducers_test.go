package subgraphmr

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"subgraphmr/internal/directed"
	"subgraphmr/internal/shares"
)

// TestPlanResolvesReducers pins the planner's rule for the reducer budget k:
// 32 × W with W the reduce workers (WithPartitions, else WithParallelism,
// else GOMAXPROCS) times a distributed plan's workers; an explicit k or b
// left as given; a fixed 1024 under a memory budget and beside WithBuckets.
// Explain names the k and where it came from.
func TestPlanResolvesReducers(t *testing.T) {
	g := Gnm(200, 800, 5)
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name  string
		opts  []Option
		k     int
		from  string
		check func(t *testing.T, p *QueryPlan)
	}{
		{name: "W=1", opts: []Option{WithPartitions(1)}, k: 32, from: "k=32 (32 × 1 reduce workers)"},
		{name: "W=2", opts: []Option{WithPartitions(2)}, k: 64, from: "k=64 (32 × 2 reduce workers)"},
		{name: "W=4", opts: []Option{WithPartitions(4)}, k: 128, from: "k=128 (32 × 4 reduce workers)"},
		{name: "parallelism", opts: []Option{WithParallelism(4)}, k: 128, from: "k=128 (32 × 4 reduce workers)"},
		{name: "partitions over parallelism", opts: []Option{WithParallelism(4), WithPartitions(2)}, k: 64, from: "k=64 (32 × 2 reduce workers)"},
		{name: "GOMAXPROCS", k: 32 * procs, from: fmt.Sprintf("k=%d (32 × %d reduce workers)", 32*procs, procs)},
		{name: "explicit k", opts: []Option{WithPartitions(2), WithTargetReducers(100)}, k: 100, from: "k=100 (WithTargetReducers)"},
		{name: "explicit b", opts: []Option{WithPartitions(2), WithBuckets(3), WithStrategy(StrategyBucketOriented)},
			k: 1024, from: "k=1024 (fixed beside WithBuckets)",
			check: func(t *testing.T, p *QueryPlan) {
				if p.Chosen.Buckets != 3 {
					t.Errorf("b = %d, want the explicit 3", p.Chosen.Buckets)
				}
			}},
		{name: "budget", opts: []Option{WithPartitions(2), WithMemoryBudget(1 << 20)}, k: 1024, from: "k=1024 (fixed under WithMemoryBudget)"},
		{name: "WithWorkers", opts: []Option{WithPartitions(2), WithWorkers([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"})},
			k: 32 * 2 * 3, from: "k=192 (32 × 2 reduce workers × 3 distributed workers)"},
		{name: "WithDistributed", opts: []Option{WithPartitions(1), WithDistributed(2)},
			k: 32 * 1 * 2, from: "k=64 (32 × 1 reduce workers × 2 distributed workers)"},
		{name: "share candidate", opts: []Option{WithPartitions(2), WithStrategy(StrategyVariableOriented)}, k: 64,
			from: "k=64 (32 × 2 reduce workers)",
			check: func(t *testing.T, p *QueryPlan) {
				if p.Chosen.Reducers > 64 {
					t.Errorf("shares %v give %d reducers, over k = 64", p.Chosen.Shares, p.Chosen.Reducers)
				}
			}},
		{name: "bucket candidate", opts: []Option{WithPartitions(2), WithStrategy(StrategyBucketOriented)}, k: 64,
			from: "k=64 (32 × 2 reduce workers)",
			check: func(t *testing.T, p *QueryPlan) {
				if want := shares.BucketsForReducers(64, 3); p.Chosen.Buckets != want {
					t.Errorf("b = %d, want %d (the largest b whose reducers fit k = 64)", p.Chosen.Buckets, want)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Plan(g, Triangle(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.opts.core.TargetReducers; got != tc.k {
				t.Errorf("k = %d, want %d", got, tc.k)
			}
			if line := "  reducer budget: " + tc.from + "\n"; !strings.Contains(p.Explain(), line) {
				t.Errorf("Explain lacks %q:\n%s", line, p.Explain())
			}
			if tc.check != nil {
				tc.check(t, p)
			}
		})
	}

	// The directed path resolves k by the same rule.
	dg := directed.RandomDiGraph(60, 300, 2, 3)
	res, err := EnumerateDirectedContext(context.Background(), dg, directed.DirectedCycle(3, 0), nil, WithPartitions(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := shares.BucketsForReducers(32, 3); res.Jobs[0].Shares[0] != want {
		t.Errorf("directed job b = %d, want %d (k = 32 × 1 reduce worker)", res.Jobs[0].Shares[0], want)
	}
}

// TestDistributedReducersFromCoordinator runs a distributed plan whose
// coordinator pins W = 3 reduce workers on spawned workers whose GOMAXPROCS
// is 1: the k the coordinator resolved (32 × 3 × 2 workers) travels in the
// job request, so the workers run the coordinator's shares and the union
// equals a local run at that k — same instances, same communication.
func TestDistributedReducersFromCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	t.Setenv("GOMAXPROCS", "1") // the spawned workers' environment
	ctx := context.Background()
	g := Gnm(80, 500, 4)
	const k = 32 * 3 * 2
	for _, st := range []PlanStrategy{StrategyBucketOriented, StrategyVariableOriented} {
		t.Run(st.String(), func(t *testing.T) {
			dplan, err := Plan(g, Square(), WithStrategy(st), WithSeed(2), WithPartitions(3), WithDistributed(2))
			if err != nil {
				t.Fatal(err)
			}
			if got := dplan.opts.core.TargetReducers; got != k {
				t.Fatalf("coordinator k = %d, want %d", got, k)
			}
			lplan, err := Plan(g, Square(), WithStrategy(st), WithSeed(2), WithPartitions(3), WithTargetReducers(k))
			if err != nil {
				t.Fatal(err)
			}
			dist, err := Run(ctx, dplan)
			if err != nil {
				t.Fatal(err)
			}
			local, err := Run(ctx, lplan)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInstances(Square(), dist.Instances, local.Instances) {
				t.Fatalf("distributed run found %d instances, local %d, or different ones", len(dist.Instances), len(local.Instances))
			}
			dj, lj := dist.Jobs[0], local.Jobs[0]
			if dj.Label != lj.Label || fmt.Sprint(dj.Shares) != fmt.Sprint(lj.Shares) || dj.TargetReducers != lj.TargetReducers {
				t.Errorf("workers ran %q shares %v k=%d, local %q shares %v k=%d",
					dj.Label, dj.Shares, dj.TargetReducers, lj.Label, lj.Shares, lj.TargetReducers)
			}
			if dm, lm := dj.Metrics, lj.Metrics; dm.KeyValuePairs != lm.KeyValuePairs || dm.DistinctKeys != lm.DistinctKeys || dm.MaxReducerInput != lm.MaxReducerInput {
				t.Errorf("distributed comm %+v, local %+v", dm, lm)
			}
		})
	}
	waitForNoSpawned(t)
}

// sameInstances reports whether a and b hold the same instances of s, each
// once.
func sameInstances(s *Sample, a, b [][]Node) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, phi := range a {
		seen[s.Key(phi)]++
	}
	for _, phi := range b {
		if seen[s.Key(phi)] != 1 {
			return false
		}
		seen[s.Key(phi)]++
	}
	return true
}

// TestReduceStorageRecycled pins that a reduce worker's storage outlives its
// job: once warmed, a count-only bucket run at b = 2 — four tasks, the
// largest over three quarters of 100 000 edges — takes its fragment, kernel
// scratch and gather buffer from the free lists instead of allocating them
// again; what is left is the job's input-sized block table. Without the
// lists the same run allocates several times the bound. One reduce worker
// runs every task, so the one workspace the warm-up grew is the one the
// measured run takes, whatever the scheduler does.
func TestReduceStorageRecycled(t *testing.T) {
	g := Gnm(10000, 100000, 1)
	plan, err := Plan(g, Triangle(), WithStrategy(StrategyBucketOriented), WithBuckets(2), WithCountOnly(), WithPartitions(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := CountTriangles(g)
	for range 2 { // warm the free lists: the second run takes what the first grew
		if res, err := Run(ctx, plan); err != nil || res.Count != want {
			t.Fatalf("warm-up run: count %v, err %v; oracle %d", res, err, want)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(ctx, plan)
	runtime.ReadMemStats(&after)
	if err != nil || res.Count != want {
		t.Fatalf("count %v, err %v; oracle %d", res, err, want)
	}
	const bound = 2 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("a warmed run allocated %d bytes, want under %d", got, bound)
	} else {
		t.Logf("a warmed run allocated %d bytes", got)
	}
}

// TestConcurrentPlansShareWorkspaces runs different plans at once — bucket,
// share and Partition jobs over different samples and graphs, so the
// workspaces and gather buffers the free lists hand out change hands between
// jobs of every kind mid-flight — and requires every run to return the
// count the plan's lone run returned (the difftest matrix holds lone runs
// to the oracles). Run under -race it also checks that no job touches
// storage after handing it back.
func TestConcurrentPlansShareWorkspaces(t *testing.T) {
	ctx := context.Background()
	small, dense := Gnm(150, 600, 3), Gnm(50, 300, 8)
	type query struct {
		g    *Graph
		s    *Sample
		opts []Option
	}
	queries := []query{
		{small, Triangle(), []Option{WithStrategy(StrategyBucketOriented)}},
		{dense, Square(), []Option{WithStrategy(StrategyBucketOriented), WithPartitions(3)}},
		{small, Lollipop(), []Option{WithStrategy(StrategyVariableOriented)}},
		{dense, Triangle(), []Option{WithStrategy(StrategyCQOriented), WithPartitions(3)}},
		{small, Triangle(), []Option{WithStrategy(StrategyDecomposed)}},
		{dense, Triangle(), []Option{WithStrategy(StrategyTrianglePartition)}},
	}
	plans := make([]*QueryPlan, len(queries))
	wants := make([]int64, len(queries))
	for i, q := range queries {
		p, err := Plan(q.g, q.s, append([]Option{WithSeed(uint64(i))}, q.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		plans[i], wants[i] = p, res.Count
	}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(plans))
	for r := range rounds {
		for i, p := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var res *Result
				var err error
				if (r+i)%2 == 0 {
					res, err = Run(ctx, p)
				} else {
					var n int64
					res, err = Stream(ctx, p, func([]Node) bool { n++; return true })
					if err == nil {
						res.Count = n
					}
				}
				switch {
				case err != nil:
					errs <- fmt.Errorf("%v: %w", p.Strategy, err)
				case res.Count != wants[i]:
					errs <- fmt.Errorf("%v on %v: %d instances, %d alone", p.Strategy, p.Sample(), res.Count, wants[i])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
