// Package core implements the paper's primary contribution: enumerating
// every instance of an arbitrary sample graph S inside a data graph G in a
// single round of map-reduce, with each instance produced exactly once.
//
// A sample graph is compiled to a union of conjunctive queries (package
// cq, Section 3; package cycles for the specialized Section 5 generator),
// shares are optimized per Section 4 (package shares), and the job runs on
// the in-process map-reduce engine (package mapreduce) under one of three
// processing strategies:
//
//   - CQOriented (Section 4.1): a separate job per merged CQ, each with its
//     own optimal share assignment.
//   - VariableOriented (Section 4.3): one job for all CQs; edges used in
//     both orientations ship a doubled relation; shares are optimized for
//     the combined cost (always at least as good as any split —
//     Theorem 4.4).
//   - BucketOriented (Section 4.5): one hash, equal buckets b per variable,
//     one reducer per nondecreasing bucket p-tuple (C(b+p-1, p) of them —
//     Theorem 4.2), each edge shipped to C(b+p-3, p-2) reducers, nodes
//     ordered by (bucket, id) as in Section 2.3 — whose triangle algorithm
//     is this strategy at p = 3.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/cycles"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/shares"
)

// Strategy selects the processing strategy of Section 4.
type Strategy int

const (
	// BucketOriented is the Section 4.5 strategy (default: it needs no
	// share optimization and ships each edge in one orientation only).
	BucketOriented Strategy = iota
	// CQOriented runs one job per CQ (Section 4.1).
	CQOriented
	// VariableOriented runs one combined job (Section 4.3).
	VariableOriented
)

func (s Strategy) String() string {
	switch s {
	case BucketOriented:
		return "bucket-oriented"
	case CQOriented:
		return "cq-oriented"
	case VariableOriented:
		return "variable-oriented"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Options configures Enumerate: the planning knobs of the share- and
// bucket-based strategies and the engine every job runs on. The root
// package's options, the distributed job request and the directed path all
// carry this one value.
type Options struct {
	// TargetReducers is the reducer budget k for the share-based strategies
	// (default 1024). For BucketOriented it picks the largest b with
	// C(b+p-1, p) ≤ TargetReducers unless Buckets is set.
	TargetReducers int
	// Buckets overrides the bucket count b for BucketOriented.
	Buckets int
	// UseCycleCQs selects the Section 5 run-sequence CQ generator when the
	// sample graph is a cycle (fewer CQs than the general method).
	UseCycleCQs bool
	// Seed seeds the bucket hashes (jobs are deterministic given a seed).
	Seed uint64
	// AdaptiveReplan enables mid-query re-planning for multi-job
	// strategies: after each CQOriented job, the observed reducer skew
	// (MaxReducerInput vs the mean) is compared against SkewThreshold, and
	// when it is exceeded the remaining jobs re-optimize their shares at a
	// proportionally raised reducer budget so hot reducers split. Jobs that
	// ran at a revised configuration are marked JobStats.Replanned. The
	// instance set is unchanged — every job still emits each of its
	// instances exactly once, at whatever share configuration it runs.
	AdaptiveReplan bool
	// SkewThreshold is the observed max/mean load ratio above which
	// AdaptiveReplan revises the remaining jobs (0 = the default, 4).
	SkewThreshold float64
	// Engine configures every job of the enumeration: map workers, shuffle
	// partitions, memory budget and spill dir, none of which changes the
	// instances or the core metrics. Its Dist is set only by the
	// distributed executor on workers, restricting every job to the owned
	// key-space slices.
	Engine mapreduce.Config
}

func (o Options) reducers() int {
	if o.TargetReducers > 0 {
		return o.TargetReducers
	}
	return 1024
}

// BucketsFor resolves the bucket count b of a bucket-style job over p
// variables: Buckets when set, otherwise the largest b whose C(b+p-1, p)
// useful reducers fit the reducer budget (Theorem 4.2).
func (o Options) BucketsFor(p int) int {
	if o.Buckets > 0 {
		return o.Buckets
	}
	return shares.BucketsForReducers(o.reducers(), p)
}

// DefaultSkewThreshold is the observed max/mean reducer-load ratio above
// which adaptive execution considers a job skewed (see Options.SkewThreshold
// and the planner's WithAdaptive).
const DefaultSkewThreshold = 4.0

// ResolvedSkewThreshold is the observed max/mean load ratio above which
// adaptive execution treats a configuration as skewed: SkewThreshold when
// set, otherwise DefaultSkewThreshold.
func (o Options) ResolvedSkewThreshold() float64 {
	if o.SkewThreshold > 0 {
		return o.SkewThreshold
	}
	return DefaultSkewThreshold
}

// JobStats describes one map-reduce job of an enumeration.
type JobStats struct {
	// Label names the job (strategy, and CQ index for CQOriented).
	Label string
	// CQs prints the conjunctive queries evaluated by the job's reducers.
	CQs []string
	// Shares is the integer share vector (VariableOriented/CQOriented) or
	// the uniform bucket vector (BucketOriented).
	Shares []int
	// PredictedCommPerEdge is the model-predicted communication per data
	// edge at the integer shares used.
	PredictedCommPerEdge float64
	// OptimalCommPerEdge is the fractional-share optimum (share-based
	// strategies) or the exact closed form (bucket-oriented).
	OptimalCommPerEdge float64
	// Metrics is the engine-measured cost of the job.
	Metrics mapreduce.Metrics
	// ObservedSkew is the job's measured load imbalance: MaxReducerInput
	// divided by the mean reducer input (0 when nothing was shipped).
	ObservedSkew float64
	// Replanned marks a job that ran at a configuration revised mid-query
	// by adaptive re-planning (observed skew on an earlier job exceeded the
	// threshold, so this job's reducer budget was raised — or, for the
	// cascade, the remaining rounds were replaced by a one-round algorithm).
	Replanned bool
	// TargetReducers is the reducer budget the job's shares were optimized
	// for (0 for bucket-style jobs, which derive b instead); replanned jobs
	// show the revised budget.
	TargetReducers int `json:",omitempty"`
	// RetriedPartitions counts the distributed key-space partitions this
	// job re-ran on a surviving worker (or locally, as the last resort)
	// after their original worker failed. Zero for local runs and for
	// distributed runs without failures; only the coordinator's summary
	// entry sets it.
	RetriedPartitions int `json:",omitempty"`
}

// Result is the outcome of an enumeration — the one result type every
// strategy reports through.
type Result struct {
	// Instances holds one assignment (node per sample variable) for every
	// instance of the sample graph, each instance exactly once. Strategies
	// deliver instances to a sink and leave it nil; the root package's Run
	// fills it from its collecting sink (nil under WithCountOnly).
	Instances [][]graph.Node
	// Count is the exact number of instances (always populated): the
	// deliveries the sink accepted, or the matches counted when there was
	// no sink.
	Count int64
	// Jobs lists per-job statistics (one entry except for CQOriented).
	Jobs []JobStats
	// NumCQs is the number of conjunctive queries evaluated.
	NumCQs int
}

// TotalComm sums communication cost (key-value pairs) over all jobs.
func (r *Result) TotalComm() int64 {
	var t int64
	for _, j := range r.Jobs {
		t += j.Metrics.KeyValuePairs
	}
	return t
}

// TotalReducerWork sums reducer work units over all jobs.
func (r *Result) TotalReducerWork() int64 {
	var t int64
	for _, j := range r.Jobs {
		t += j.Metrics.ReducerWork
	}
	return t
}

// Enumerate finds every instance of s in g exactly once under strategy st,
// evaluating qs, s's CQ set as CompileCQs builds it for opt (a plan compiles
// it once and hands it to every run), in a single map-reduce round per job
// and delivering each instance to sink:
// calls are serialized and block the engine (backpressure); returning false
// stops the enumeration early with a nil error. A nil sink counts instead —
// the reducers tally their owned matches without ever constructing an
// instance. Result.Count is exact either way. Cancelling ctx aborts the
// running job (engine workers wind down) and returns ctx.Err().
//
// The sample graph must be connected (reducers only see edges, so an
// isolated sample node could bind to nodes the reducer never receives).
func Enumerate(ctx context.Context, g *graph.Graph, s *sample.Sample, st Strategy, qs *CQSet, opt Options, sink func([]graph.Node) bool) (*Result, error) {
	if !s.IsConnected() {
		return nil, fmt.Errorf("core: map-reduce enumeration requires a connected sample graph")
	}
	switch st {
	case BucketOriented:
		return bucketOriented(ctx, g, s, qs, opt, sink)
	case VariableOriented:
		return variableOriented(ctx, g, s, qs, opt, sink)
	case CQOriented:
		return cqOriented(ctx, g, qs, opt, sink)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", st)
	}
}

// enumJob is one enumeration round: edges in, each stored once in the block
// its endpoint buckets name, instances out, reducers named by bucket keys.
type enumJob = mapreduce.BlockJob[graph.Edge, graph.BucketKey, graph.Edge, []graph.Node]

// matchSink is where a job's reducers send the matches they own: on to sink
// when there is one, into a counter when there is none — so a count-only
// run never constructs an instance.
type matchSink struct {
	sink    func([]graph.Node) bool
	counted atomic.Int64
}

// counting reports that there is no sink: reducers call count, not emit.
func (ms *matchSink) counting() bool { return ms.sink == nil }

func (ms *matchSink) count() { ms.counted.Add(1) }

// run executes job over g's edges and returns the exact instance count —
// the deliveries the sink accepted or the matches counted; one of the two
// is always zero.
func (ms *matchSink) run(ctx context.Context, job enumJob, cfg mapreduce.Config, g *graph.Graph) (int64, mapreduce.Metrics, error) {
	yield := ms.sink
	if yield == nil {
		yield = func([]graph.Node) bool { return true } // never reached: counting reducers emit nothing
	}
	metrics, err := job.RunStream(ctx, cfg, g.Edges(), yield)
	return metrics.Outputs + ms.counted.Load(), metrics, err
}

// CompileCQs compiles the sample to its CQ set: the Section 5 generator for
// cycles when opt.UseCycleCQs is set, otherwise the Section 3 pipeline
// (orderings → Aut quotient → orientation merge). The planner costs the
// same set the strategies run. Its one error is UseCycleCQs on a sample
// that is not a cycle.
func CompileCQs(s *sample.Sample, opt Options) (*CQSet, error) {
	if opt.UseCycleCQs {
		if d, reg := s.IsRegular(); !reg || d != 2 {
			return nil, fmt.Errorf("the Section 5 generator requires a cycle sample, got %v", s)
		}
		var qs []*cq.CQ
		for _, c := range cycles.Generate(s.P()) {
			qs = append(qs, c.CQ)
		}
		return &CQSet{CQs: qs}, nil
	}
	return &CQSet{CQs: cq.MergeByOrientation(cq.GenerateForSample(s))}, nil
}

// CQSet is a sample's compiled CQ set with what the jobs evaluating it
// reuse, each built on first use: the evaluator set over all of it (the
// bucket- and variable-oriented jobs), one over each CQ (the cq-oriented
// jobs run one CQ each) and the CQs rendered for JobStats.CQs. It is
// read-only once built and safe for concurrent runs, so a plan compiles it
// once and every run of the plan shares it.
type CQSet struct {
	CQs []*cq.CQ

	allOnce  sync.Once
	all      *cq.EvaluatorSet
	eachOnce sync.Once
	each     []*cq.EvaluatorSet
	nameOnce sync.Once
	names    []string
}

// evaluators returns the evaluator set over every CQ.
func (c *CQSet) evaluators() *cq.EvaluatorSet {
	c.allOnce.Do(func() { c.all = cq.NewEvaluatorSet(c.CQs) })
	return c.all
}

// evaluatorsEach returns one evaluator set per CQ, sharing the compiled
// evaluators of evaluators().
func (c *CQSet) evaluatorsEach() []*cq.EvaluatorSet {
	c.eachOnce.Do(func() { c.each = c.evaluators().Split() })
	return c.each
}

// strings returns CQs i to j rendered, for JobStats.CQs. Every run's
// JobStats shares the rendering (capped, so an append copies).
func (c *CQSet) strings(i, j int) []string {
	c.nameOnce.Do(func() {
		c.names = make([]string, len(c.CQs))
		for k, q := range c.CQs {
			c.names[k] = q.String()
		}
	})
	return c.names[i:j:j]
}

// bucketOriented implements the Section 4.5 strategy.
func bucketOriented(ctx context.Context, g *graph.Graph, s *sample.Sample, qs *CQSet, opt Options, sink func([]graph.Node) bool) (*Result, error) {
	const name = "bucket-oriented"
	evals := qs.evaluators()
	res, err := runBucketJob(ctx, g, s.P(), opt, name, name, sink, func(scheme bucketScheme, ms *matchSink, job enumJob) enumJob {
		// The fragment keeps each rank's bucket, which is all the ownership
		// test reads.
		return newBucketReducer(evals, scheme, ms).side(job)
	})
	if err != nil {
		return nil, err
	}
	res.Jobs[0].CQs = qs.strings(0, len(qs.CQs))
	res.NumCQs = len(qs.CQs)
	return res, nil
}

// runBucketJob runs one job replicated by the Section 4.5 scheme — the
// bucket-oriented strategy and the Theorem 6.1 conversion differ only in
// what their reducers do with a key's edges: it resolves b, builds the
// scheme, has side give the job its reduce side for the scheme and the
// match sink, runs the job and reports the one JobStats entry.
func runBucketJob(ctx context.Context, g *graph.Graph, p int, opt Options, name, label string,
	sink func([]graph.Node) bool, side func(bucketScheme, *matchSink, enumJob) enumJob) (*Result, error) {
	b := opt.BucketsFor(p)
	scheme, err := newBucketScheme(opt.Seed, p, b)
	if err != nil {
		return nil, err
	}
	ms := &matchSink{sink: sink}
	job := side(scheme, ms, scheme.job(fmt.Sprintf("%s b=%d", name, b)))
	count, metrics, err := ms.run(ctx, job, opt.Engine, g)
	if err != nil {
		return nil, err
	}
	stats := JobStats{
		Label:                fmt.Sprintf("%s b=%d", label, b),
		Shares:               shares.Uniform(p, b),
		PredictedCommPerEdge: shares.BucketEdgeReplication(b, p),
		OptimalCommPerEdge:   shares.BucketEdgeReplication(b, p),
		Metrics:              metrics,
		ObservedSkew:         metrics.Skew(),
	}
	return &Result{Count: count, Jobs: []JobStats{stats}}, nil
}

// bucketScheme is the Section 4.5 replication: an edge reaches the
// C(b+p-3, p-2) reducers whose bucket multiset contains the buckets of both
// its endpoints — so it is stored once, in the block of that bucket pair,
// and each multiset reads the pair blocks it covers. Execution
// (bucket-oriented and the Theorem 6.1 conversion) and the planner's load
// probes build it through newBucketScheme from the job seed alone, so the
// probed loads are exactly what the job will ship.
type bucketScheme struct {
	h graph.NodeHash // h.B is the bucket count b
	p int
}

// newBucketScheme rejects a (p, b) the reducer key cannot express.
func newBucketScheme(seed uint64, p, b int) (bucketScheme, error) {
	if err := graph.CheckKey(p, b); err != nil {
		return bucketScheme{}, fmt.Errorf("core: %w", err)
	}
	return bucketScheme{h: graph.NodeHash{Seed: seed + 0x9e3779b97f4a7c15, B: b}, p: p}, nil
}

//lint:hotpath
func (s bucketScheme) Map(e graph.Edge, emit func(int, graph.Edge)) {
	emit(graph.PairBlock(s.h.B, s.h.Bucket(e.U), s.h.Bucket(e.V)), e)
}

func (s bucketScheme) blocks() int { return graph.PairBlocks(s.h.B) }

// job is the scheme as an engine job, its reduce side unset (as a load
// probe wants it).
func (s bucketScheme) job(name string) enumJob {
	return enumJob{
		Name:   name,
		Blocks: s.blocks(),
		Map:    s.Map,
		Keys:   func(yield func(graph.BucketKey, []int32)) { graph.MultisetKeys(s.p, s.h.B, yield) },
		Codec:  graph.EdgeKeyCodec{P: s.p},
	}
}

// variableOriented implements the Section 4.3 strategy.
func variableOriented(ctx context.Context, g *graph.Graph, s *sample.Sample, qs *CQSet, opt Options, sink func([]graph.Node) bool) (*Result, error) {
	uses := cq.EdgeUses(qs.CQs)
	model := shares.ModelFromEdgeUses(s.P(), uses)
	evals := qs.evaluators()
	res, err := runShareJob(ctx, g, evals, qs.strings(0, len(qs.CQs)), model, bindingsFromUses(uses), opt, "variable-oriented", sink)
	if err != nil {
		return nil, err
	}
	res.NumCQs = len(qs.CQs)
	return res, nil
}

// cqOriented implements the Section 4.1 strategy: one job per CQ. An early
// stop (the sink returning false) skips the remaining jobs.
//
// Under Options.AdaptiveReplan the sequence is resumable at a new
// configuration: a job whose observed skew exceeds the threshold raises the
// reducer budget for the remaining jobs, so hot reducers split into more,
// smaller groups. That is sound because each job owns its CQ's instances
// outright — the share configuration decides where an instance is emitted,
// never whether.
func cqOriented(ctx context.Context, g *graph.Graph, qs *CQSet, opt Options, sink func([]graph.Node) bool) (*Result, error) {
	out := &Result{NumCQs: len(qs.CQs)}
	each := qs.evaluatorsEach()
	stopped := false
	wrapped := sink
	if sink != nil {
		wrapped = func(phi []graph.Node) bool {
			if !sink(phi) {
				stopped = true
				return false
			}
			return true
		}
	}
	k := opt.reducers()
	replanned := false
	for i, q := range qs.CQs {
		if stopped || ctx.Err() != nil {
			break
		}
		model := shares.ModelFromCQ(q)
		jobOpt := opt
		jobOpt.TargetReducers = k
		label := fmt.Sprintf("cq-oriented job %d/%d", i+1, len(qs.CQs))
		if replanned {
			label += fmt.Sprintf(" (replanned k=%d)", k)
		}
		res, err := runShareJob(ctx, g, each[i], qs.strings(i, i+1), model, bindingsFromCQ(q), jobOpt, label, wrapped)
		if err != nil {
			return nil, err
		}
		for j := range res.Jobs {
			res.Jobs[j].Replanned = replanned
		}
		out.Count += res.Count
		out.Jobs = append(out.Jobs, res.Jobs...)

		if opt.AdaptiveReplan && i+1 < len(qs.CQs) {
			if k2 := replanReducers(k, res.Jobs, qs.CQs[i+1:], opt.ResolvedSkewThreshold()); k2 > k {
				k = k2
				replanned = true
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// replanReducers decides the revised reducer budget after an observed-skew
// breach: the budget is raised proportionally to the breach
// (shares.SkewAdjustedReducers), but only if every remaining CQ's shares
// still solve and round within the engine's per-variable limit at the new
// budget — otherwise the current budget is kept.
func replanReducers(k int, done []JobStats, remaining []*cq.CQ, threshold float64) int {
	skew := 0.0
	for _, j := range done {
		if j.ObservedSkew > skew {
			skew = j.ObservedSkew
		}
	}
	k2 := shares.SkewAdjustedReducers(k, skew, threshold, 0)
	if k2 <= k {
		return k
	}
	for _, q := range remaining {
		model := shares.ModelFromCQ(q)
		sol, err := model.Solve(float64(k2))
		if err != nil {
			return k
		}
		if shares.MaxShare(model.RoundShares(sol.Shares, float64(k2))) > shares.MaxIntShare {
			return k
		}
	}
	return k2
}

// edgeBinding says: ship the data edge (U < V) binding variable lo to U and
// hi to V. Bidirectional sample edges produce two bindings.
type edgeBinding struct{ lo, hi int }

func bindingsFromUses(uses []cq.EdgeUse) []edgeBinding {
	var binds []edgeBinding
	for _, u := range uses {
		if u.Forward {
			binds = append(binds, edgeBinding{lo: u.I, hi: u.J})
		}
		if u.Backward {
			binds = append(binds, edgeBinding{lo: u.J, hi: u.I})
		}
	}
	return binds
}

// bindingsFromCQ binds each subgoal of a single CQ in its one orientation.
func bindingsFromCQ(q *cq.CQ) []edgeBinding {
	binds := make([]edgeBinding, len(q.Subgoals))
	for i, sg := range q.Subgoals {
		binds[i] = edgeBinding{lo: sg.Lo, hi: sg.Hi}
	}
	return binds
}

// shareScheme is the share-based replication: per binding, an edge reaches
// the reducers of every bucket tuple extending the bound pair — so it is
// stored once per binding, in the block (binding, h_lo(U), h_hi(V)), and a
// reducer reads one block per binding: the one its own lo and hi lanes
// name. Execution and the planner's load probes build it through
// newShareScheme from the job seed and the integer shares alone, so the
// probed loads are exactly what the job will ship.
type shareScheme struct {
	binds  []edgeBinding
	hashes []graph.NodeHash // hashes[v].B is variable v's integer share
	base   []int            // base[i] is binding i's first block; base[len(binds)] the block count
}

// newShareScheme rejects a share vector the reducer key cannot express.
func newShareScheme(seed uint64, binds []edgeBinding, intShares []int) (*shareScheme, error) {
	if err := graph.CheckKey(len(intShares), shares.MaxShare(intShares)); err != nil {
		return nil, fmt.Errorf("core: shares %v: %w", intShares, err)
	}
	hashes := make([]graph.NodeHash, len(intShares))
	for v := range intShares {
		hashes[v] = graph.NodeHash{Seed: seed + uint64(v)*0x9e3779b97f4a7c15 + 1, B: intShares[v]}
	}
	base := make([]int, len(binds)+1)
	for i, bind := range binds {
		base[i+1] = base[i] + intShares[bind.lo]*intShares[bind.hi]
	}
	return &shareScheme{binds: binds, hashes: hashes, base: base}, nil
}

//lint:hotpath
func (s *shareScheme) Map(e graph.Edge, emit func(int, graph.Edge)) {
	for i, bind := range s.binds {
		emit(s.base[i]+s.hashes[bind.lo].Bucket(e.U)*s.hashes[bind.hi].B+s.hashes[bind.hi].Bucket(e.V), e)
	}
}

// Keys walks every bucket tuple, last variable fastest. An edge matching two
// bindings at one key sits in two of its blocks and counts twice, as the
// paper's cost model counts it.
func (s *shareScheme) Keys(yield func(graph.BucketKey, []int32)) {
	var key graph.BucketKey
	blocks := make([]int32, len(s.binds))
	for {
		for i, bind := range s.binds {
			blocks[i] = int32(s.base[i] + int(key[bind.lo])*s.hashes[bind.hi].B + int(key[bind.hi]))
		}
		yield(key, blocks)
		v := len(s.hashes) - 1
		for ; v >= 0; v-- {
			if next := int(key[v]) + 1; next < s.hashes[v].B {
				key.Set(v, next)
				break
			}
			key.Set(v, 0)
		}
		if v < 0 {
			return
		}
	}
}

func (s *shareScheme) blocks() int { return s.base[len(s.binds)] }

// job is the scheme as an engine job, its reduce side unset (as a load
// probe wants it).
func (s *shareScheme) job(name string) enumJob {
	return enumJob{
		Name:   name,
		Blocks: s.blocks(),
		Map:    s.Map,
		Keys:   s.Keys,
		Codec:  graph.EdgeKeyCodec{P: len(s.hashes)},
	}
}

// runShareJob executes one share-based job: optimize shares for the model,
// round to integer bucket counts, store each edge once per binding, let the
// reducer of every bucket tuple read the blocks extending its bound pairs,
// and evaluate the CQs at each reducer with the natural node order. An
// instance is emitted only at the reducer matching the hashes of all its
// nodes.
func runShareJob(ctx context.Context, g *graph.Graph, evals *cq.EvaluatorSet, cqs []string, model shares.Model, binds []edgeBinding, opt Options, label string, sink func([]graph.Node) bool) (*Result, error) {
	sol, err := model.Solve(float64(opt.reducers()))
	if err != nil {
		return nil, err
	}
	intShares := model.RoundShares(sol.Shares, float64(opt.reducers()))
	scheme, err := newShareScheme(opt.Seed, binds, intShares)
	if err != nil {
		return nil, err
	}
	ms := &matchSink{sink: sink}
	job := newShareReducer(evals, scheme, g, ms).side(scheme.job(label))
	count, metrics, err := ms.run(ctx, job, opt.Engine, g)
	if err != nil {
		return nil, err
	}
	fs := make([]float64, len(intShares))
	for v, sh := range intShares {
		fs[v] = float64(sh)
	}
	stats := JobStats{
		Label:                label,
		CQs:                  cqs,
		Shares:               intShares,
		PredictedCommPerEdge: model.CostPerEdge(fs),
		OptimalCommPerEdge:   sol.CostPerEdge,
		Metrics:              metrics,
		ObservedSkew:         metrics.Skew(),
		TargetReducers:       opt.reducers(),
	}
	return &Result{Count: count, Jobs: []JobStats{stats}}, nil
}
