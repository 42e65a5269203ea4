package difftest

import (
	"context"
	"fmt"
	"time"

	"subgraphmr"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
)

// DistributedConfig configures one distributed-vs-local parity check.
type DistributedConfig struct {
	// Workers routes the distributed run through already-listening worker
	// addresses (subgraphmr.ServeWorker servers).
	Workers []string
	// Spawn instead forks this many local worker processes (the test
	// binary must route spawned children through
	// subgraphmr.MaybeWorkerProcess in TestMain).
	Spawn int
	// Fault is the injected worker failure, if any.
	Fault subgraphmr.FaultSpec
	// ExpectRetry asserts the coordinator recorded retried partitions
	// (the fault really fired); when false, a healthy run is asserted to
	// have retried nothing.
	ExpectRetry bool
	// MemoryBudget, when positive, forces the workers' external shuffle
	// — for the cascade, the one strategy whose jobs can spill.
	MemoryBudget int64
	// Timeout overrides the coordinator's per-frame read deadline (the
	// stall fault needs a short one to keep the test quick).
	Timeout time.Duration
	// ExpectCommParity additionally asserts the summed distributed
	// metrics match the local run's exactly — KeyValuePairs,
	// DistinctKeys, MaxReducerInput — which holds for every single-round
	// strategy because each reducer key is owned by exactly one worker.
	// Leave it false for the two-round cascade: its round 2 broadcasts
	// the edge relation to every worker, so distributed pairs exceed the
	// local count by design.
	ExpectCommParity bool
}

// CheckDistributedParity runs one plan twice — in-process, and distributed
// across the configured workers (with the configured fault injected) — and
// checks the instance sets are bit-identical, the counts agree, and the
// coordinator's retry accounting matches expectations. It returns the
// distributed run's summed metrics so callers can assert execution detail
// (e.g. that a tiny memory budget really spilled on the workers).
func CheckDistributedParity(ctx context.Context, g *graph.Graph, s *sample.Sample, st subgraphmr.PlanStrategy, seed uint64, cfg DistributedConfig) (mapreduce.Metrics, error) {
	label := fmt.Sprintf("distparity/%v/%v", st, s)
	// TargetReducers 64 matches the rest of the harness. Left to the
	// planner, k would be 32 reducers per reduce worker of the whole
	// cluster — a different k for the local and the distributed plan, so
	// different shares and communication on the two sides.
	base := []subgraphmr.Option{
		subgraphmr.WithStrategy(st),
		subgraphmr.WithSeed(seed),
		subgraphmr.WithTargetReducers(64),
	}
	if cfg.MemoryBudget > 0 {
		base = append(base, subgraphmr.WithMemoryBudget(cfg.MemoryBudget))
	}

	localPlan, err := subgraphmr.Plan(g, s, base...)
	if err != nil {
		return mapreduce.Metrics{}, fmt.Errorf("%s: local plan: %w", label, err)
	}
	local, err := subgraphmr.Run(ctx, localPlan)
	if err != nil {
		return mapreduce.Metrics{}, fmt.Errorf("%s: local run: %w", label, err)
	}

	dopts := append(append([]subgraphmr.Option(nil), base...),
		subgraphmr.WithFaultInjection(cfg.Fault))
	if len(cfg.Workers) > 0 {
		dopts = append(dopts, subgraphmr.WithWorkers(cfg.Workers))
	} else {
		dopts = append(dopts, subgraphmr.WithDistributed(cfg.Spawn))
	}
	if cfg.Timeout > 0 {
		dopts = append(dopts, subgraphmr.WithWorkerTimeout(cfg.Timeout))
	}
	distPlan, err := subgraphmr.Plan(g, s, dopts...)
	if err != nil {
		return mapreduce.Metrics{}, fmt.Errorf("%s: distributed plan: %w", label, err)
	}
	dist, err := subgraphmr.Run(ctx, distPlan)
	if err != nil {
		return mapreduce.Metrics{}, fmt.Errorf("%s: distributed run: %w", label, err)
	}

	var dm mapreduce.Metrics
	retried := 0
	for _, j := range dist.Jobs {
		dm.Add(j.Metrics)
		retried += j.RetriedPartitions
	}

	// Bit-identical instance sets: the distributed union must be exactly
	// the local set, each instance exactly once.
	want := make(map[string]bool, len(local.Instances))
	for _, phi := range local.Instances {
		want[s.Key(phi)] = true
	}
	got := make([]string, 0, len(dist.Instances))
	for _, phi := range dist.Instances {
		got = append(got, s.Key(phi))
	}
	if err := compareInstances(label, want, got); err != nil {
		return dm, err
	}
	if dist.Count != local.Count {
		return dm, fmt.Errorf("%s: distributed Count %d, local %d", label, dist.Count, local.Count)
	}

	if cfg.ExpectRetry && retried == 0 {
		return dm, fmt.Errorf("%s: expected retried partitions after injected fault, recorded none", label)
	}
	if !cfg.ExpectRetry && retried != 0 {
		return dm, fmt.Errorf("%s: healthy run recorded %d retried partitions", label, retried)
	}

	if cfg.ExpectCommParity {
		var lm mapreduce.Metrics
		for _, j := range local.Jobs {
			lm.Add(j.Metrics)
		}
		if dm.KeyValuePairs != lm.KeyValuePairs || dm.DistinctKeys != lm.DistinctKeys || dm.MaxReducerInput != lm.MaxReducerInput {
			return dm, fmt.Errorf("%s: distributed metrics (pairs=%d keys=%d max=%d) diverge from local (pairs=%d keys=%d max=%d)",
				label, dm.KeyValuePairs, dm.DistinctKeys, dm.MaxReducerInput,
				lm.KeyValuePairs, lm.DistinctKeys, lm.MaxReducerInput)
		}
	}
	return dm, nil
}

// DistributedCase pairs a strategy with the sample the parity matrix runs
// it on.
type DistributedCase struct {
	Strategy subgraphmr.PlanStrategy
	Sample   *sample.Sample
	// CommParity reports whether the strategy's summed distributed
	// metrics must equal the local run's (false only for the cascade,
	// whose round 2 broadcasts the edge relation).
	CommParity bool
}

// DistributedCases pairs every strategy of the root package's table with a
// suitable sample: the general strategies run on the two-path sample
// (plentiful instances, so faults reliably fire mid-stream), the ones whose
// planner rejects it — the triangle-only algorithms — on the triangle. The
// bucket-oriented job runs on the triangle too: there it is Section 2.3's
// algorithm, the job the tri-bucket alias names.
func DistributedCases() []DistributedCase {
	probe := graph.PathGraph(3)
	var cases []DistributedCase
	for _, name := range subgraphmr.StrategyNames() {
		st, err := subgraphmr.ParseStrategy(name)
		if err != nil || st == subgraphmr.StrategyAuto {
			continue
		}
		s := sample.TwoPath()
		if _, err := subgraphmr.Plan(probe, s, subgraphmr.WithStrategy(st)); err != nil {
			s = sample.Triangle()
		}
		cases = append(cases, DistributedCase{Strategy: st, Sample: s, CommParity: st != subgraphmr.StrategyTwoRound})
	}
	return append(cases, DistributedCase{Strategy: subgraphmr.StrategyTriangleBucketOrdered, Sample: sample.Triangle(), CommParity: true})
}
