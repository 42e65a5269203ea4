package subgraphmr

import (
	"fmt"
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
)

// StrategyTriangleBucketOrdered names the paper's improved triangle
// algorithm (Section 2.3). It is Section 4.5's bucket-oriented strategy at
// p = 3, so the name is an alias of StrategyBucketOriented, as the short
// name "tri-bucket" is of "bucket". Value 8, which it had while it was a
// job of its own, is retired and no strategy takes it again.
const StrategyTriangleBucketOrdered = StrategyBucketOriented

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
	// core is the enumeration and engine configuration. Plan resolves
	// TargetReducers once, up front (resolveReducers), so every candidate,
	// the executed jobs and a distributed run's workers all use the same k.
	// Its Engine.Dist is worker-side only: the key-space slices this
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

func defaultPlanOpts() planOpts { return planOpts{strategy: StrategyAuto} }

// reducersPerWorker is c in the default reducer budget k = c × W, with W the
// reduce workers that run the tasks. The paper takes k as given, and its
// communication per edge grows with k, so k should be the fewest reducers
// that keep W workers busy. Fewer than 32 per worker measured worse on the
// benchmark's power-law triangle workload (tri-skew, 2 cores, medians of
// four 10 s runs against the 1024 budget): peak memory rose 15 % at 16 and
// 20 % at 8, where the first result also came 11 % later; at 32 they moved
// +2 % and −8 %.
const reducersPerWorker = 32

// fixedReducers is the cluster-sized reducer budget a plan keeps where an
// option pins the old arithmetic: under WithMemoryBudget, until the budget
// sizes reducers itself, and beside WithBuckets, whose explicit b leaves k
// to the share-based candidates alone.
const fixedReducers = 1024

// resolveReducers is the one place the reducer budget k is decided. It sets
// o.core.TargetReducers, unless WithTargetReducers did, and says where the
// value came from, for Explain. Plan, QueryKey and EnumerateDirectedContext
// all call it, so a plan, its cache key and its jobs (distributed workers
// included, which receive the resolved value) cannot disagree.
//
// The default is reducersPerWorker × W. W is the engine's reduce workers —
// WithPartitions, else WithParallelism, else GOMAXPROCS — times the worker
// count of a distributed plan, whose tasks the whole cluster runs.
func (o *planOpts) resolveReducers() reducerSource {
	c := &o.core
	switch {
	case c.TargetReducers > 0:
		return reducerSource{k: c.TargetReducers, by: "WithTargetReducers"}
	case c.Engine.MemoryBudget > 0:
		c.TargetReducers = fixedReducers
		return reducerSource{k: fixedReducers, by: "fixed under WithMemoryBudget"}
	case c.Buckets > 0:
		c.TargetReducers = fixedReducers
		return reducerSource{k: fixedReducers, by: "fixed beside WithBuckets"}
	}
	w, n := c.Engine.ReduceWorkers(), len(o.workers)
	if n == 0 {
		n = o.spawnWorkers
	}
	c.TargetReducers = reducersPerWorker * w * max(n, 1)
	return reducerSource{k: c.TargetReducers, w: w, n: n}
}

// reducerSource is where a plan's k came from: the option that set or fixed
// it, or else the reduce workers w and distributed workers n (0 for a local
// plan) the rule multiplied.
type reducerSource struct {
	k    int
	by   string
	w, n int
}

func (r reducerSource) String() string {
	if r.by != "" {
		return fmt.Sprintf("k=%d (%s)", r.k, r.by)
	}
	s := fmt.Sprintf("k=%d (%d × %d reduce workers", r.k, reducersPerWorker, r.w)
	if r.n > 0 {
		s += fmt.Sprintf(" × %d distributed workers", r.n)
	}
	return s + ")"
}

// WithStrategy forces a specific strategy instead of letting the planner
// choose. Triangle-only strategies error at Plan time for other samples.
func WithStrategy(st PlanStrategy) Option { return func(o *planOpts) { o.strategy = st } }

// WithTargetReducers sets the reducer budget k: share-based strategies
// optimize shares for it, bucket-based strategies pick the largest b whose
// useful-reducer count stays within it. A non-positive k lets Plan choose:
// 32 reducers per reduce worker (WithPartitions, else WithParallelism, else
// GOMAXPROCS; a distributed plan counts every worker's), since the paper's
// communication per edge grows with k. Under WithMemoryBudget, or beside
// WithBuckets, the chosen k is a fixed 1024. Explain prints the k a plan
// used and where it came from.
func WithTargetReducers(k int) Option { return func(o *planOpts) { o.core.TargetReducers = k } }

// WithBuckets overrides the bucket count b for bucket-based strategies,
// bypassing the TargetReducers derivation.
func WithBuckets(b int) Option { return func(o *planOpts) { o.core.Buckets = b } }

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
// reduce workers of the two-round cascade hold in memory; beyond it the
// engine spills sorted runs to disk and merge-streams them into the
// reducers. The cascade's two rounds run as one pipe — round 1's reducers
// map each wedge straight into round 2's shuffle — and the budget bounds
// both rounds' shuffle state together: round 1 buffers in the whole
// budget, and once round 2 starts filling, round 1 holds only a small
// reserve of it (its merge read buffers) and round 2 buffers in the rest.
// The wedge relation therefore never exists outside that state. The
// share-hashed strategies (every other one, and the directed path) hold no
// pairs — each edge sits once in an input-sized block table — so they
// ignore the budget and never spill.
func WithMemoryBudget(bytes int64) Option {
	return func(o *planOpts) { o.core.Engine.MemoryBudget = bytes }
}

// WithSpillDir sets the directory for spill run files ("" = system temp);
// only a budgeted cascade writes any.
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
// breach, and the two-round cascade runs as the one-round bucket-oriented
// job instead when round 1's exact loads — its reducers are the degree
// distribution, known before it starts — prove skewed (the switch is
// recorded in JobStats.Replanned/ObservedSkew). Results are
// bit-identical to the static plan's — only the configuration changes.
func WithAdaptive() Option { return func(o *planOpts) { o.core.AdaptiveReplan = true } }

// WithSkewThreshold sets the observed max/mean reducer-load ratio above
// which adaptive execution re-plans (default 4). Only meaningful together
// with WithAdaptive.
func WithSkewThreshold(t float64) Option { return func(o *planOpts) { o.core.SkewThreshold = t } }
