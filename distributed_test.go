package subgraphmr

import (
	"context"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"subgraphmr/internal/distrib"
)

// TestMain routes processes spawned by WithDistributed into worker mode so
// the teardown tests exercise real OS processes.
func TestMain(m *testing.M) {
	if MaybeWorkerProcess() {
		return
	}
	os.Exit(m.Run())
}

// waitForNoSpawned polls until every spawned worker process is reaped.
func waitForNoSpawned(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for distrib.LiveSpawned() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d spawned worker process(es) still alive", distrib.LiveSpawned())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func trianglePlan(t *testing.T, opts ...Option) *QueryPlan {
	t.Helper()
	g := Gnm(60, 400, 3)
	plan, err := Plan(g, Triangle(), append([]Option{
		WithStrategy(StrategyBucketOriented),
		WithTargetReducers(64),
		WithSeed(1),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDistGraphPayloadMemoized pins the re-encoding fix: a plan's
// distributed graph payload is serialized once and reused byte-for-byte
// (same backing array) across runs — repeated distributed executions of a
// cached plan no longer pay EncodeGraph each time. Plan copies share the
// memo, and plans the worker reconstructs by hand (no enc) still encode.
func TestDistGraphPayloadMemoized(t *testing.T) {
	plan := trianglePlan(t)
	a, b := plan.distGraphPayload(), plan.distGraphPayload()
	if len(a) == 0 {
		t.Fatal("empty payload")
	}
	if &a[0] != &b[0] {
		t.Error("distGraphPayload re-encoded the graph on the second call")
	}
	lp := *plan
	if c := lp.distGraphPayload(); &a[0] != &c[0] {
		t.Error("a plan copy does not share the memoized payload")
	}
	bare := &QueryPlan{graph: plan.graph, sample: plan.sample}
	if d := bare.distGraphPayload(); len(d) != len(a) {
		t.Errorf("fallback encoding differs: %d vs %d bytes", len(d), len(a))
	}
}

// TestDistributedRunMatchesLocal is the root-level smoke check: a spawned
// two-worker run returns the same count as a local run, reports the
// cluster summary, and leaves no processes or goroutines behind.
func TestDistributedRunMatchesLocal(t *testing.T) {
	ctx := context.Background()
	local, err := Run(ctx, trianglePlan(t))
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	dist, err := Run(ctx, trianglePlan(t, WithDistributed(2)))
	if err != nil {
		t.Fatal(err)
	}
	if dist.Count != local.Count {
		t.Fatalf("distributed count %d, local %d", dist.Count, local.Count)
	}
	summary := dist.Jobs[len(dist.Jobs)-1]
	if summary.Label == "" || summary.RetriedPartitions != 0 {
		t.Fatalf("unexpected summary entry: %+v", summary)
	}
	waitForNoSpawned(t)
	waitForGoroutines(t, baseline)
}

// TestDistributedInstancesEarlyBreak is the cancellation satellite: a
// mid-stream break out of Instances must tear the remote workers down —
// no leaked goroutines, no leaked spawned processes, and the coordinator's
// sockets closed (the goroutine check covers the per-worker readers).
func TestDistributedInstancesEarlyBreak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	plan := trianglePlan(t, WithDistributed(2))

	seen := 0
	for phi, err := range Instances(context.Background(), plan) {
		if err != nil {
			t.Fatal(err)
		}
		if len(phi) != 3 {
			t.Fatalf("bad instance %v", phi)
		}
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("streamed %d instances before break, want 1", seen)
	}
	waitForNoSpawned(t)
	waitForGoroutines(t, baseline)
}

// TestDistributedMidRunCancel cancels the context while a distributed run
// is in flight; the run must fail with the context error and tear down.
func TestDistributedMidRunCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	plan := trianglePlan(t, WithDistributed(2))

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, plan)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		// Either the cancellation surfaced, or the run won the race and
		// finished first; both are acceptable, leaks are not.
		_ = err
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled distributed run did not return")
	}
	waitForNoSpawned(t)
	waitForGoroutines(t, baseline)
}

// TestDistributedInjectedFaultTeardown extends the teardown contract to
// injected transport faults: with one coordinator-side frame read failing,
// the retry ladder must still reach the local count, and — the actual
// subject — the spawned worker processes and coordinator goroutines must
// be fully reclaimed afterwards, exactly as on the healthy path.
func TestDistributedInjectedFaultTeardown(t *testing.T) {
	t.Cleanup(ResetFailpoints)
	ctx := context.Background()
	local, err := Run(ctx, trianglePlan(t))
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	if err := EnableFailpoints("distrib.frame.read=error*1"); err != nil {
		t.Fatal(err)
	}
	dist, err := Run(ctx, trianglePlan(t, WithDistributed(2)))
	if err != nil {
		t.Fatalf("injected single read fault must be retried, got %v", err)
	}
	if dist.Count != local.Count {
		t.Fatalf("count after injected fault %d, local %d", dist.Count, local.Count)
	}
	summary := dist.Jobs[len(dist.Jobs)-1]
	if summary.RetriedPartitions == 0 {
		t.Fatalf("injected read fault recorded no retried partitions: %+v", summary)
	}
	waitForNoSpawned(t)
	waitForGoroutines(t, baseline)
}

// TestDistributedStreamTeardownWithWorkers checks the dialed-workers path
// (ServeWorker servers) closes its connections on early break: the
// in-process servers' per-connection goroutines must drain back to the
// baseline once the listeners shut down.
func TestDistributedStreamTeardownWithWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var addrs []string
	var lns []net.Listener
	serveDone := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
		go func() {
			ServeWorker(ctx, ln)
			serveDone <- struct{}{}
		}()
	}

	plan := trianglePlan(t, WithWorkers(addrs))
	for _, err := range Instances(context.Background(), plan) {
		if err != nil {
			t.Fatal(err)
		}
		break
	}

	cancel()
	for range lns {
		<-serveDone
	}
	waitForGoroutines(t, baseline)
}
