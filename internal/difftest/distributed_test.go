package difftest

import (
	"context"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"subgraphmr"
	"subgraphmr/internal/sample"
)

// TestMain routes processes spawned by WithDistributed into worker mode:
// the kill-fault tests re-execute this test binary as real worker
// processes, so a SIGKILL hits an actual OS process, not a goroutine.
func TestMain(m *testing.M) {
	if subgraphmr.MaybeWorkerProcess() {
		return
	}
	os.Exit(m.Run())
}

// startWorkers serves n in-process workers on loopback listeners and
// returns their addresses. In-process servers still speak the full wire
// protocol over TCP; they just skip the process-spawn overhead, which
// keeps the no-fault matrix fast.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addrs[i] = ln.Addr().String()
		go subgraphmr.ServeWorker(ctx, ln)
	}
	return addrs
}

// TestDistributedParity is the healthy-cluster matrix: every strategy on
// every corpus graph, in memory and under a tiny spill budget, must produce
// bit-identical instance sets (and, for the single-round strategies,
// identical summed communication metrics) through three workers. Under the
// budget the cascade's workers spill and no other strategy's do.
func TestDistributedParity(t *testing.T) {
	addrs := startWorkers(t, 3)
	for gname, g := range Graphs(7) {
		for _, tc := range DistributedCases() {
			for _, mode := range modes {
				name := fmt.Sprintf("%s/%v/%v/%s", gname, tc.Strategy, tc.Sample, mode.name)
				t.Run(name, func(t *testing.T) {
					m, err := CheckDistributedParity(t.Context(), g, tc.Sample, tc.Strategy, 42, DistributedConfig{
						Workers:          addrs,
						MemoryBudget:     mode.budget,
						ExpectCommParity: tc.CommParity,
					})
					if err != nil {
						t.Fatal(err)
					}
					wantSpill(t, tc.Strategy == subgraphmr.StrategyTwoRound, mode.budget, m)
				})
			}
		}
	}
}

// TestDistributedParityWorkerKill is the acceptance case: three spawned
// worker processes, the first one to stream an instance is SIGKILLed
// mid-job, and every strategy must still produce bit-identical results —
// with the summary JobStats recording the retried partitions. The cascade,
// the one strategy that can spill, runs under the tiny spill budget so the
// kill also lands mid-spill.
func TestDistributedParityWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := Graphs(7)["gnm"]
	for _, tc := range DistributedCases() {
		var budget int64
		if tc.Strategy == subgraphmr.StrategyTwoRound {
			budget = 2048
		}
		t.Run(fmt.Sprintf("%v/%v", tc.Strategy, tc.Sample), func(t *testing.T) {
			_, err := CheckDistributedParity(t.Context(), g, tc.Sample, tc.Strategy, 42, DistributedConfig{
				Spawn:            3,
				MemoryBudget:     budget,
				Fault:            subgraphmr.FaultSpec{Mode: subgraphmr.FaultKill, Worker: -1, AfterInstances: 1},
				ExpectRetry:      true,
				ExpectCommParity: tc.CommParity,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDistributedParityWorkerDrop severs the coordinator's connection to
// the first streaming worker (the process survives); its partitions must be
// retried on the survivors with no duplicates and no losses.
func TestDistributedParityWorkerDrop(t *testing.T) {
	addrs := startWorkers(t, 3)
	g := Graphs(7)["powerlaw"]
	for _, tc := range []DistributedCase{
		{subgraphmr.StrategyBucketOriented, sample.TwoPath(), true},
		{subgraphmr.StrategyBucketOriented, sample.Triangle(), true},
	} {
		t.Run(fmt.Sprintf("%v/%v", tc.Strategy, tc.Sample), func(t *testing.T) {
			_, err := CheckDistributedParity(t.Context(), g, tc.Sample, tc.Strategy, 42, DistributedConfig{
				Workers:          addrs,
				Fault:            subgraphmr.FaultSpec{Mode: subgraphmr.FaultDrop, Worker: -1, AfterInstances: 1},
				ExpectRetry:      true,
				ExpectCommParity: tc.CommParity,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDistributedParityWorkerStall makes worker 0 go silent mid-job; the
// coordinator's per-frame read deadline must declare it dead and retry its
// partitions on the survivors, still bit-identically.
func TestDistributedParityWorkerStall(t *testing.T) {
	addrs := startWorkers(t, 3)
	g := Graphs(7)["gnm"]
	_, err := CheckDistributedParity(t.Context(), g, sample.TwoPath(), subgraphmr.StrategyBucketOriented, 42, DistributedConfig{
		Workers:          addrs,
		Fault:            subgraphmr.FaultSpec{Mode: subgraphmr.FaultStall, Worker: 0, AfterInstances: 1},
		Timeout:          2 * time.Second,
		ExpectRetry:      true,
		ExpectCommParity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}
