package subgraphmr

import (
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (background runtime goroutines may legitimately linger, so the
// check retries before declaring a leak).
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

// k5Plan builds the acceptance workload: K5s in a large clique — every
// 5-subset of K16 is an instance, so there is far more work than any
// 10-instance prefix needs.
func k5Plan(t *testing.T, opts ...Option) *QueryPlan {
	t.Helper()
	g := CompleteGraph(16)
	plan, err := Plan(g, CliqueSample(5), append([]Option{WithTargetReducers(256), WithSeed(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestInstancesEarlyBreak is the acceptance scenario: enumerating K5s in a
// large clique and breaking after 10 instances must do fewer work units
// than the full run, return promptly, and leak no goroutines.
func TestInstancesEarlyBreak(t *testing.T) {
	ctx := context.Background()
	plan := k5Plan(t)

	full, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if full.Count == 0 {
		t.Fatal("no K5s in K16?")
	}

	baseline := runtime.NumGoroutine()
	got := 0
	for phi, err := range Instances(ctx, plan) {
		if err != nil {
			t.Fatal(err)
		}
		if len(phi) != 5 {
			t.Fatalf("instance has %d nodes, want 5", len(phi))
		}
		got++
		if got == 10 {
			break
		}
	}
	if got != 10 {
		t.Fatalf("broke after %d instances, want 10", got)
	}
	waitForGoroutines(t, baseline)

	// The callback form exposes the partial metrics: breaking after 10
	// must have skipped most of the reducer work the full run performed.
	n := 0
	partial, err := Stream(ctx, plan, func([]Node) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Count >= full.Count {
		t.Errorf("early break delivered %d instances, full run %d", partial.Count, full.Count)
	}
	partialWork := partial.TotalReducerWork()
	fullWork := full.TotalReducerWork()
	if partialWork >= fullWork {
		t.Errorf("early break did %d work units, full run %d — no work was saved", partialWork, fullWork)
	}
	waitForGoroutines(t, baseline)
}

// TestEarlyBreakStopsReducersMidGroup: on a skewed graph with few, fat
// reducers, most of the work sits in the hub groups, and a reducer used to
// finish its whole group for nobody after the consumer had broken off.
// Breaking at the first instance must now leave the bulk of the full run's
// reducer work undone — measured in work units, not wall-clock.
func TestEarlyBreakStopsReducersMidGroup(t *testing.T) {
	ctx := context.Background()
	g := PowerLaw(1500, 10, 2.2, 3)
	plan, err := Plan(g, Square(), WithStrategy(StrategyBucketOriented), WithTargetReducers(5), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Stream(ctx, plan, func([]Node) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	partial, err := Stream(ctx, plan, func([]Node) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if partial.Count != 0 || full.Count == 0 {
		t.Fatalf("refused the first of %d instances, yet %d were delivered", full.Count, partial.Count)
	}
	if partialWork, fullWork := partial.TotalReducerWork(), full.TotalReducerWork(); 2*partialWork >= fullWork {
		t.Errorf("break at the first instance still did %d of the full run's %d work units", partialWork, fullWork)
	}
}

// TestInstancesCancelledContext checks a pre-cancelled and an expired
// context both surface context errors promptly and leak nothing.
func TestInstancesCancelledContext(t *testing.T) {
	plan := k5Plan(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawErr := false
	for _, err := range Instances(ctx, plan) {
		if err != nil {
			sawErr = true
			if !errors.Is(err, context.Canceled) {
				t.Errorf("got %v, want context.Canceled", err)
			}
		}
	}
	if !sawErr {
		t.Error("cancelled context produced no error")
	}
	waitForGoroutines(t, baseline)

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	sawErr = false
	for _, err := range Instances(dctx, plan) {
		if err != nil {
			sawErr = true
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("got %v, want context.DeadlineExceeded", err)
			}
		}
	}
	if !sawErr {
		t.Error("expired deadline produced no error")
	}
	waitForGoroutines(t, baseline)
}

// TestInstancesMidRunCancel cancels while instances are flowing and checks
// the iterator terminates with the context error well before finishing.
func TestInstancesMidRunCancel(t *testing.T) {
	plan := k5Plan(t)
	full, err := Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var count int64
	var ctxErr error
	for phi, err := range Instances(ctx, plan) {
		if err != nil {
			ctxErr = err
			continue
		}
		_ = phi
		count++
		if count == 5 {
			cancel()
		}
	}
	if ctxErr == nil {
		t.Error("mid-run cancel surfaced no error")
	} else if !errors.Is(ctxErr, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", ctxErr)
	}
	if count >= full.Count {
		t.Errorf("cancel after 5 still delivered all %d instances", count)
	}
	waitForGoroutines(t, baseline)
}

// TestStreamSpillCleanup checks that streamed runs under a memory budget
// leave no spill files behind — on completion, on early break, and on
// cancellation. It runs the cascade, the strategy whose plain jobs spill,
// over the triangles of a clique.
func TestStreamSpillCleanup(t *testing.T) {
	ctx := context.Background()
	spillPlan := func(dir string) *QueryPlan {
		return mustPlan(t, CompleteGraph(24), Triangle(), WithStrategy(StrategyTwoRound), WithMemoryBudget(1<<14), WithSpillDir(dir))
	}
	assertEmpty := func(t *testing.T, dir, when string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) == 0 {
				return
			}
			if time.Now().After(deadline) {
				names := make([]string, len(entries))
				for i, e := range entries {
					names[i] = e.Name()
				}
				t.Fatalf("%s: %d spill files left in %s: %v", when, len(entries), dir, names)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Completed streamed run: must actually spill, then clean up.
	dir := t.TempDir()
	plan := spillPlan(dir)
	res, err := Stream(ctx, plan, func([]Node) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for _, job := range res.Jobs {
		spilled += job.Metrics.SpilledPairs
	}
	if spilled == 0 {
		t.Fatal("16 KiB budget did not spill — cleanup checks below would be vacuous")
	}
	assertEmpty(t, dir, "completed run")

	// Early iterator break mid-spill.
	dir = t.TempDir()
	plan = spillPlan(dir)
	baseline := runtime.NumGoroutine()
	n, open := 0, 0
	for _, err := range Instances(ctx, plan) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 3 {
			entries, _ := os.ReadDir(dir)
			open = len(entries)
			break
		}
	}
	waitForGoroutines(t, baseline)
	if open == 0 {
		t.Fatal("no spill run open at the break — the check below would be vacuous")
	}
	assertEmpty(t, dir, "early break")

	// Cancellation mid-run.
	dir = t.TempDir()
	plan = spillPlan(dir)
	cctx, cancel := context.WithCancel(ctx)
	n = 0
	for _, err := range Instances(cctx, plan) {
		if err != nil {
			break
		}
		n++
		if n == 3 {
			cancel()
		}
	}
	cancel()
	waitForGoroutines(t, baseline)
	assertEmpty(t, dir, "cancelled run")
}

// TestStreamIgnoresCountOnly pins the documented contract: a plan built
// with WithCountOnly still delivers every instance when executed through
// Stream/Instances (counting without delivery is Run's job). Regression
// test — the CQ strategies used to route matches to the reducer-side
// counter and yield nothing.
func TestStreamIgnoresCountOnly(t *testing.T) {
	ctx := context.Background()
	g := Gnm(100, 400, 13)
	want := CountTriangles(g)
	if want == 0 {
		t.Fatal("test graph has no triangles")
	}
	for _, st := range []PlanStrategy{StrategyBucketOriented, StrategyDecomposed, StrategyTrianglePartition, StrategyTwoRound} {
		plan, err := Plan(g, Triangle(), WithStrategy(st), WithTargetReducers(64), WithCountOnly())
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		var streamed int64
		res, err := Stream(ctx, plan, func([]Node) bool { streamed++; return true })
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if streamed != want {
			t.Errorf("%v: Stream under WithCountOnly delivered %d instances, want %d", st, streamed, want)
		}
		if res.Count != want {
			t.Errorf("%v: Stream result count %d, want %d", st, res.Count, want)
		}
	}
}

// TestStreamMatchesMaterialized checks the streamed instance set is
// exactly the materialized one for every strategy family.
func TestStreamMatchesMaterialized(t *testing.T) {
	ctx := context.Background()
	g := Gnm(150, 600, 11)
	for _, tc := range []struct {
		s  *Sample
		st PlanStrategy
	}{
		{Triangle(), StrategyBucketOriented},
		{Triangle(), StrategyTrianglePartition},
		{Triangle(), StrategyTwoRound},
		{Square(), StrategyVariableOriented},
		{Square(), StrategyCQOriented},
		{Square(), StrategyDecomposed},
	} {
		plan, err := Plan(g, tc.s, WithStrategy(tc.st), WithTargetReducers(64), WithSeed(4))
		if err != nil {
			t.Fatalf("%v: %v", tc.st, err)
		}
		res, err := Run(ctx, plan)
		if err != nil {
			t.Fatalf("%v: %v", tc.st, err)
		}
		want := map[string]bool{}
		for _, phi := range res.Instances {
			want[tc.s.Key(phi)] = true
		}
		streamed := map[string]bool{}
		for phi, err := range Instances(ctx, plan) {
			if err != nil {
				t.Fatalf("%v: %v", tc.st, err)
			}
			key := tc.s.Key(phi)
			if streamed[key] {
				t.Errorf("%v: instance %s streamed twice", tc.st, key)
			}
			streamed[key] = true
			if !want[key] {
				t.Errorf("%v: streamed %s not in materialized result", tc.st, key)
			}
		}
		if len(streamed) != len(want) {
			t.Errorf("%v: streamed %d distinct instances, materialized %d", tc.st, len(streamed), len(want))
		}
	}
}

// TestInstancesAreTheCallers pins the ownership contract of Stream and
// Instances: each yielded slice is the caller's to keep and to grow.
// Appending to every instance as it arrives must leave every other
// instance unchanged and the multiset equal to Run's — which fails if any
// path hands out uncapped slices of a shared chunk, or reuses one.
func TestInstancesAreTheCallers(t *testing.T) {
	ctx := context.Background()
	g := Gnm(150, 600, 11)
	for _, tc := range []struct {
		name string
		s    *Sample
		st   PlanStrategy
		opts []Option
	}{
		{"bucket", Triangle(), StrategyBucketOriented, nil},
		{"variable", Square(), StrategyVariableOriented, nil},
		{"cq", Square(), StrategyCQOriented, nil},
		{"tri-partition", Triangle(), StrategyTrianglePartition, nil},
		{"cascade", Triangle(), StrategyTwoRound, nil},
		{"distributed bucket", Square(), StrategyBucketOriented, []Option{WithDistributed(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := Plan(g, tc.s, append([]Option{WithStrategy(tc.st), WithTargetReducers(64), WithSeed(4)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			var kept, snapshots [][]Node
			for phi, err := range Instances(ctx, plan) {
				if err != nil {
					t.Fatal(err)
				}
				snapshots = append(snapshots, slices.Clone(phi))
				kept = append(kept, phi)
				grown := append(phi, -1)
				grown[0] = -1
			}
			for i, phi := range kept {
				if !slices.Equal(phi, snapshots[i]) {
					t.Fatalf("instance %d changed from %v to %v after later instances were grown", i, snapshots[i], phi)
				}
			}
			if got, want := instanceKeys(tc.s, kept), instanceKeys(tc.s, res.Instances); !slices.Equal(got, want) {
				t.Errorf("streamed %d instances, Run %d; the multisets differ", len(got), len(want))
			}
		})
	}
}

// instanceKeys returns the sorted canonical keys of instances.
func instanceKeys(s *Sample, instances [][]Node) []string {
	keys := make([]string, len(instances))
	for i, phi := range instances {
		keys[i] = s.Key(phi)
	}
	slices.Sort(keys)
	return keys
}

// fakeProducer delivers n instances {i, i+1, i+2} in order (n < 0: until
// stopped), stopping when the sink refuses one or ctx ends, and then
// returns err (ctx's error if it ended). It closes done on return.
func fakeProducer(n int, err error, done chan<- struct{}) func(context.Context, func([]Node) bool) error {
	return func(ctx context.Context, sink func([]Node) bool) error {
		defer close(done)
		for i := 0; n < 0 || i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !sink([]Node{Node(i), Node(i + 1), Node(i + 2)}) {
				return nil
			}
		}
		return err
	}
}

// TestBridgeOrderAndErrors pins what bridge hands the range loop: every
// instance the producer delivered, in order, and only then its error.
func TestBridgeOrderAndErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		n       int
		err     error
		breakAt int // the consumer breaks after this many instances; 0 never
		want    int // instances yielded
	}{
		{"5 then a failure", 5, boom, 0, 5},
		{"300 then a failure", 300, boom, 0, 300},
		{"300", 300, nil, 0, 300},
		{"none", 0, nil, 0, 0},
		{"none then a failure", 0, boom, 0, 0},
		{"break at the first", -1, nil, 1, 1},
		{"break at the 257th", -1, nil, 257, 257},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan struct{})
			got, iterations := 0, 0
			var gotErr error
			bridge(context.Background(), fakeProducer(tc.n, tc.err, done), func(phi []Node, err error) bool {
				iterations++
				if gotErr != nil {
					t.Fatalf("iteration after the error %v", gotErr)
				}
				if err != nil {
					gotErr = err
					return true
				}
				if want := []Node{Node(got), Node(got + 1), Node(got + 2)}; !slices.Equal(phi, want) {
					t.Fatalf("instance %d = %v, want %v", got, phi, want)
				}
				got++
				return got != tc.breakAt
			})
			select {
			case <-done:
			default:
				t.Fatal("bridge returned before its producer did")
			}
			if got != tc.want {
				t.Errorf("yielded %d instances, want %d", got, tc.want)
			}
			if gotErr != tc.err {
				t.Errorf("error %v, want %v", gotErr, tc.err)
			}
			if tc.n == 0 && tc.err == nil && iterations != 0 {
				t.Errorf("an empty producer made %d iterations", iterations)
			}
		})
	}
}

// TestBridgeRunsAtMostOneBatchAhead: the producer may fill the next batch
// while the consumer works through the last one, and no more — so it is
// never more than two batches past the instance being yielded — and the
// first instance crosses alone, before a second is asked for.
func TestBridgeRunsAtMostOneBatchAhead(t *testing.T) {
	var delivered atomic.Int64
	produce := func(ctx context.Context, sink func([]Node) bool) error {
		for i := range 5000 {
			delivered.Add(1)
			if !sink([]Node{Node(i)}) {
				break
			}
		}
		return nil
	}
	yielded := int64(0)
	bridge(context.Background(), produce, func(phi []Node, err error) bool {
		if err != nil {
			t.Fatal(err)
		}
		if d := delivered.Load(); yielded == 0 && d > 3 {
			t.Errorf("the producer had delivered %d instances before the first was yielded", d)
		} else if d-yielded > 2*maxBatch {
			t.Errorf("the producer had delivered %d instances with %d yielded", d, yielded)
		}
		yielded++
		return true
	})
	if yielded != 5000 {
		t.Errorf("yielded %d of 5000", yielded)
	}
}

// TestInstancesAllocations pins the batched hand-off: a full Instances
// loop over a triangle-dense graph makes far fewer allocations than it
// yields instances, where one per instance was the rule before slabs.
func TestInstancesAllocations(t *testing.T) {
	plan, err := Plan(CompleteGraph(60), Triangle(), WithStrategy(StrategyBucketOriented), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var n int
	loop := func() {
		n = 0
		for _, err := range Instances(ctx, plan) {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	allocs := testing.AllocsPerRun(3, loop)
	if n < 10000 {
		t.Fatalf("the graph has %d triangles; the test needs at least 10000", n)
	}
	if allocs >= float64(n)/32 {
		t.Errorf("an Instances loop over %d triangles took %v allocations, want fewer than %d", n, allocs, n/32)
	}
	t.Logf("%d triangles, %v allocations", n, allocs)
}
