package subgraphmr

import (
	"time"

	"subgraphmr/internal/core"
)

// PlanStrategy names an execution strategy the planner can choose. The
// zero value StrategyAuto lets Plan pick the strategy with the lowest
// estimated communication cost for the given sample, data graph and
// reducer budget.
type PlanStrategy int

const (
	// StrategyAuto lets the planner choose (the default).
	StrategyAuto PlanStrategy = iota
	// StrategyBucketOriented is the Section 4.5 strategy: one hash, equal
	// buckets per variable, reducers keyed by nondecreasing bucket
	// multisets.
	StrategyBucketOriented
	// StrategyVariableOriented is the Section 4.3 strategy: one job for
	// all CQs with optimized shares.
	StrategyVariableOriented
	// StrategyCQOriented is the Section 4.1 strategy: one job per merged
	// CQ, each with its own optimal shares.
	StrategyCQOriented
	// StrategyDecomposed is the Theorem 6.1 conversion of the Theorem 7.2
	// serial decomposition algorithm to one map-reduce round.
	StrategyDecomposed
	// StrategyTwoRound is the conventional cascade of two-way joins
	// (triangle samples only) — the baseline the paper argues against.
	StrategyTwoRound
	// StrategyTrianglePartition is the Suri–Vassilvitskii Partition
	// algorithm (Section 2.1, triangle samples only).
	StrategyTrianglePartition
	// StrategyTriangleMultiway is the plain multiway join (Section 2.2,
	// triangle samples only).
	StrategyTriangleMultiway
	// StrategyTriangleBucketOrdered is the paper's improved triangle
	// algorithm (Section 2.3, triangle samples only).
	StrategyTriangleBucketOrdered
)

// Option configures Plan. The one option set covers every execution path —
// all strategies honor the engine knobs (parallelism, partitions, memory
// budget, spill dir) and the planning knobs they support.
type Option func(*planOpts)

// planOpts is the unified configuration behind the functional options:
// the one core.Options value every execution path runs on, next to what
// only the root package reads.
type planOpts struct {
	strategy  PlanStrategy
	countOnly bool
	// core is the enumeration and engine configuration. Plan normalizes a
	// non-positive TargetReducers to defaultTargetReducers once, up front,
	// so every candidate (and the executed jobs) prices against the same
	// k. Its Engine.Dist is worker-side only: the key-space slices this
	// process owns.
	core core.Options

	// Distributed execution (see distributed.go). workers routes runs
	// through already-listening worker processes; spawnWorkers forks n
	// local ones instead.
	workers       []string
	spawnWorkers  int
	workerTimeout time.Duration
	fault         FaultSpec
}

// defaultTargetReducers is the reducer budget k used when none is given —
// the single source of the default; candidates read the resolved
// planOpts.core.TargetReducers and never re-derive it.
const defaultTargetReducers = 1024

func defaultPlanOpts() planOpts {
	return planOpts{strategy: StrategyAuto, core: core.Options{TargetReducers: defaultTargetReducers}}
}

// WithStrategy forces a specific strategy instead of letting the planner
// choose. Triangle-only strategies error at Plan time for other samples.
func WithStrategy(st PlanStrategy) Option { return func(o *planOpts) { o.strategy = st } }

// WithTargetReducers sets the reducer budget k (default 1024): share-based
// strategies optimize shares for it, bucket-based strategies pick the
// largest b whose useful-reducer count stays within it.
func WithTargetReducers(k int) Option { return func(o *planOpts) { o.core.TargetReducers = k } }

// WithBuckets overrides the bucket count b for bucket-based strategies,
// bypassing the TargetReducers derivation.
func WithBuckets(b int) Option { return func(o *planOpts) { o.core.Buckets = b } }

// WithCycleCQs selects the Section 5 run-sequence CQ generator (cycle
// samples only; fewer CQs than the general method).
func WithCycleCQs() Option { return func(o *planOpts) { o.core.UseCycleCQs = true } }

// WithCountOnly makes Run count instances without materializing them
// (Result.Instances stays nil; Result.Count is exact): Run executes the
// plan with no sink, so the CQ strategies' reducers count matches without
// constructing them. Ignored by Instances/Stream, which always deliver.
func WithCountOnly() Option { return func(o *planOpts) { o.countOnly = true } }

// WithSeed seeds the bucket hashes; runs are deterministic given a seed.
func WithSeed(seed uint64) Option { return func(o *planOpts) { o.core.Seed = seed } }

// WithParallelism bounds map worker goroutines (0 = GOMAXPROCS).
func WithParallelism(workers int) Option {
	return func(o *planOpts) { o.core.Engine.Parallelism = workers }
}

// WithPartitions sets the number of shuffle partitions / reduce workers
// (0 = parallelism). Scheduling only; metrics are unaffected.
func WithPartitions(p int) Option { return func(o *planOpts) { o.core.Engine.Partitions = p } }

// WithMemoryBudget bounds, in bytes, the grouped intermediate pairs the
// reduce workers hold in memory; beyond it the engine spills sorted runs
// to disk and merge-streams them into the reducers.
func WithMemoryBudget(bytes int64) Option {
	return func(o *planOpts) { o.core.Engine.MemoryBudget = bytes }
}

// WithSpillDir sets the directory for spill run files ("" = system temp).
func WithSpillDir(dir string) Option { return func(o *planOpts) { o.core.Engine.SpillDir = dir } }

// WithAdaptive enables skew-adaptive planning and execution. At plan time,
// Plan probes each viable candidate's actual reducer loads with a map-only
// pass (no reduce work) over the exact mapper the candidate would run,
// replacing the uniform closed-form estimates with observed
// MaxLoad/MeanLoad pairs, trying raised bucket counts for bucket-style
// candidates, and re-ranking by the makespan-style adjusted cost
// max(observed comm, k × observed max load) — so a strategy that
// concentrates a hub's edges on a few reducers loses to one that spreads
// them, even when its total communication is lower. At run time,
// multi-job executions re-plan mid-query: a cq-oriented job sequence
// raises its reducer budget for the remaining jobs after an observed-skew
// breach, and the two-round cascade abandons round 2 for the one-round
// bucket-ordered algorithm when round 1's loads prove skewed (the switch
// is recorded in JobStats.Replanned/ObservedSkew). Results are
// bit-identical to the static plan's — only the configuration changes.
func WithAdaptive() Option { return func(o *planOpts) { o.core.AdaptiveReplan = true } }

// WithSkewThreshold sets the observed max/mean reducer-load ratio above
// which adaptive execution re-plans (default 4). Only meaningful together
// with WithAdaptive.
func WithSkewThreshold(t float64) Option { return func(o *planOpts) { o.core.SkewThreshold = t } }
