package subgraphmr

import (
	"context"
	"fmt"
	"strings"

	"subgraphmr/internal/core"
	"subgraphmr/internal/cq"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/shares"
	"subgraphmr/internal/triangle"
	"subgraphmr/internal/tworound"
)

// This file is the one place that knows what the strategies are. The paper
// is one idea — hash edges to reducers by shares, evaluate locally — applied
// seven ways, and every layer that needs "each strategy" (Plan's candidate
// list, the adaptive prober, the local runner that Run, Stream, distributed
// workers and the coordinator's fallbacks share, the display and CLI/HTTP
// names) iterates the table below instead of switching on PlanStrategy.
// Adding a strategy is one row plus the functions it names.

// strategyDef is one row of the strategy table.
type strategyDef struct {
	id PlanStrategy
	// name is the display name (String, Explain, JSON); flag is the name
	// ParseStrategy, `sgmr -strategy` and `/query?strategy=` accept.
	name, flag string
	// price estimates the strategy's execution shape and communication for
	// a query; a candidate with Viable unset carries the Reason instead.
	// Plan stamps Candidate.Strategy.
	price func(q *planQuery) Candidate
	// probe measures the candidate's actual reducer loads map-only
	// (WithAdaptive) and folds them into c.
	probe func(pr *prober, c *Candidate)
	// run executes p — whose Chosen candidate is this strategy's — into
	// sink. A nil sink counts without delivering. Result.Instances is left
	// nil: materializing is Run's business.
	run func(ctx context.Context, p *QueryPlan, sink func([]Node) bool) (*Result, error)
}

// strategies is the table, in planner order. Order is behaviour: Auto
// breaks cost ties toward the earlier row, so the paper's preferred
// bucket-oriented strategy wins equal-cost contests (TestStrategyTable
// pins the order). The PlanStrategy values themselves are wire and
// cache-key format and never renumber.
var strategies = []strategyDef{
	{StrategyBucketOriented, "bucket-oriented", "bucket", priceCoreBuckets, probeCoreBuckets, runCore(core.BucketOriented)},
	{StrategyVariableOriented, "variable-oriented", "variable", priceVariable, probeVariable, runCore(core.VariableOriented)},
	{StrategyCQOriented, "cq-oriented", "cq", priceCQ, probeCQ, runCore(core.CQOriented)},
	{StrategyDecomposed, "decomposed", "mr-decompose", priceCoreBuckets, probeCoreBuckets, runDecomposed},
	triangleStrategy(StrategyTrianglePartition, "triangle-partition", "tri-partition", triangle.Partition),
	triangleStrategy(StrategyTriangleMultiway, "triangle-multiway", "tri-multiway", triangle.Multiway),
	{StrategyTwoRound, "two-round-cascade", "cascade", priceTwoRound, probeTwoRound, runTwoRound},
}

// strategyAutoName names StrategyAuto, the one PlanStrategy without a row.
const strategyAutoName = "auto"

// strategyAliases are short names ParseStrategy accepts beside the rows'
// own: Section 2.3's triangle algorithm is the bucket-oriented job at p = 3.
var strategyAliases = map[string]PlanStrategy{"tri-bucket": StrategyTriangleBucketOrdered}

// def returns the strategy's table row, or nil for StrategyAuto and
// unknown values.
func (st PlanStrategy) def() *strategyDef {
	for i := range strategies {
		if strategies[i].id == st {
			return &strategies[i]
		}
	}
	return nil
}

func (st PlanStrategy) String() string {
	if st == StrategyAuto {
		return strategyAutoName
	}
	if def := st.def(); def != nil {
		return def.name
	}
	return fmt.Sprintf("strategy(%d)", int(st))
}

// MarshalText renders the strategy name, so plans and results are readable
// when marshalled to JSON (cmd/sgmr -json).
func (st PlanStrategy) MarshalText() ([]byte, error) { return []byte(st.String()), nil }

// StrategyNames lists the canonical names ParseStrategy accepts: "auto",
// then every strategy's short name in planner order. ParseStrategy also
// takes "tri-bucket", an alias of "bucket".
func StrategyNames() []string {
	names := []string{strategyAutoName}
	for _, def := range strategies {
		names = append(names, def.flag)
	}
	return names
}

// ParseStrategy resolves a strategy's short name — the vocabulary of
// `sgmr -strategy` and the query service's strategy= parameter — to its
// PlanStrategy. The error lists the accepted names.
func ParseStrategy(name string) (PlanStrategy, error) {
	if name == strategyAutoName {
		return StrategyAuto, nil
	}
	if st, ok := strategyAliases[name]; ok {
		return st, nil
	}
	for _, def := range strategies {
		if def.flag == name {
			return def.id, nil
		}
	}
	return StrategyAuto, fmt.Errorf("subgraphmr: unknown strategy %q (want %s)", name, strings.Join(StrategyNames(), ", "))
}

// runLocal executes a plan in-process into sink (nil counts). It is the one
// execution path: Run and Stream call it, a distributed worker executes its
// job through it (planOpts.core.Engine.Dist set, so every engine round
// filters to the owned key-space slices), and the coordinator degrades to
// it.
func runLocal(ctx context.Context, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
	def := p.Strategy.def()
	if def == nil {
		return nil, fmt.Errorf("subgraphmr: cannot run strategy %v", p.Strategy)
	}
	return def.run(ctx, p, sink)
}

// planQuery is what the price and probe functions see of a Plan call.
type planQuery struct {
	g  *Graph
	s  *Sample
	p  int      // s.P()
	m  int64    // g.NumEdges()
	qs []*cq.CQ // the merged CQ set the share-based strategies evaluate
	o  planOpts
}

func finishCandidate(c Candidate, m int64) Candidate {
	c.EstComm = int64(c.CommPerEdge * float64(m))
	c.EstShuffleBytes = c.EstComm * planPairOverhead
	return c
}

// bucketCandidate is the viable candidate of a one-job bucket-style
// strategy: every sample variable at b buckets, priced by its closed forms.
func bucketCandidate(q *planQuery, b int, reducers int64, commPerEdge float64) Candidate {
	return finishCandidate(Candidate{
		Viable:      true,
		Buckets:     b,
		Shares:      shares.Uniform(q.p, b),
		Jobs:        1,
		Rounds:      1,
		Reducers:    reducers,
		CommPerEdge: commPerEdge,
	}, q.m)
}

// —— Section 4.5 bucket-oriented, and the Theorem 6.1 decomposed conversion ——
//
// The two ship edges identically — they differ only in the reducer-side
// algorithm — so they share a price (decomposed never beats bucket on
// communication and Auto prefers bucket by order) and a probe.

func priceCoreBuckets(q *planQuery) Candidate {
	// The explicit override, or the shared Theorem 4.2 derivation — the
	// same resolution execution uses, so plan and job cannot diverge.
	b := q.o.core.BucketsFor(q.p)
	return bucketCandidate(q, b, int64(shares.UsefulReducers(b, q.p)), shares.BucketEdgeReplication(b, q.p))
}

func probeCoreBuckets(pr *prober, c *Candidate) {
	comm := func(b int) float64 { return shares.BucketEdgeReplication(b, pr.p) }
	reducers := func(b int) int64 { return int64(shares.UsefulReducers(b, pr.p)) }
	if pr.coreBuckets != nil {
		// Same mapper, same loads: inherit the other candidate's winning
		// rung without another map pass.
		applyRung(c, *pr.coreBuckets, comm, reducers)
		return
	}
	if row, ok := pr.climb(c, comm, reducers, func(b int) (mapreduce.LoadStats, error) {
		return core.ProbeBucketLoads(pr.g, pr.p, b, pr.o.core.Seed, pr.cfg)
	}); ok {
		pr.coreBuckets = &row
	}
}

// runCore runs one of the core strategies at the plan's options, with the
// bucket count the planner resolved (an adaptive probe may have raised it).
func runCore(st core.Strategy) func(context.Context, *QueryPlan, func([]Node) bool) (*Result, error) {
	return func(ctx context.Context, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
		opt := p.opts.core
		opt.Buckets = p.Chosen.Buckets
		return core.Enumerate(ctx, p.graph, p.sample, st, p.qs, opt, sink)
	}
}

func runDecomposed(ctx context.Context, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
	opt := p.opts.core
	opt.Buckets = p.Chosen.Buckets
	return core.EnumerateDecomposed(ctx, p.graph, p.sample, opt, sink)
}

// —— Section 4.3 variable-oriented and Section 4.1 cq-oriented ——

// priceShares solves and rounds one share model at the reducer budget. A
// share the engine cannot encode (over shares.MaxIntShare) is a reason for
// non-viability here, at plan time — Run would otherwise reject the same
// shares mid-execution.
func priceShares(model shares.Model, p int, k float64) (intShares []int, reducers int64, comm float64, reason string) {
	sol, err := model.Solve(k)
	if err != nil {
		return nil, 0, 0, err.Error()
	}
	intShares = model.RoundShares(sol.Shares, k)
	if mx := shares.MaxShare(intShares); mx > shares.MaxIntShare {
		return nil, 0, 0, fmt.Sprintf("share %d exceeds the engine limit %d (lower TargetReducers)", mx, shares.MaxIntShare)
	}
	fs := make([]float64, p)
	reducers = 1
	for v, sh := range intShares {
		fs[v] = float64(sh)
		reducers *= int64(sh)
	}
	return intShares, reducers, model.CostPerEdge(fs), ""
}

// priceVariable costs the one combined job at the integer shares execution
// will actually use.
func priceVariable(q *planQuery) Candidate {
	intShares, reducers, comm, reason := priceShares(shares.VariableOrientedModel(q.p, q.qs), q.p, float64(q.o.core.TargetReducers))
	if reason != "" {
		return Candidate{Reason: reason}
	}
	return finishCandidate(Candidate{
		Viable:      true,
		Shares:      intShares,
		Jobs:        1,
		Rounds:      1,
		Reducers:    reducers,
		CommPerEdge: comm,
	}, q.m)
}

func probeVariable(pr *prober, c *Candidate) {
	ls, err := core.ProbeVariableLoads(pr.g, pr.qs, c.Shares, pr.o.core.Seed, pr.cfg)
	if err != nil {
		return
	}
	pr.applyOnly(c, pr.row(c.Strategy, 0, c.Shares, ls))
}

// priceCQ costs one job per merged CQ, each with its own optimized shares;
// the total is the sum over jobs, and any job's shares over the engine
// limit rule the candidate out.
func priceCQ(q *planQuery) Candidate {
	c := Candidate{Viable: true, Jobs: len(q.qs), Rounds: 1}
	for _, cq := range q.qs {
		intShares, reducers, comm, reason := priceShares(shares.ModelFromCQ(cq), q.p, float64(q.o.core.TargetReducers))
		if reason != "" {
			return Candidate{Reason: reason}
		}
		c.JobShares = append(c.JobShares, intShares)
		c.Reducers += reducers
		c.CommPerEdge += comm
	}
	return finishCandidate(c, q.m)
}

func probeCQ(pr *prober, c *Candidate) {
	var merged mapreduce.LoadStats
	for j, cq := range pr.qs {
		if j >= len(c.JobShares) {
			break
		}
		ls, err := core.ProbeCQLoads(pr.g, cq, c.JobShares[j], pr.o.core.Seed, pr.cfg)
		if err != nil {
			return
		}
		merged = merged.Merge(ls)
	}
	pr.applyOnly(c, pr.row(c.Strategy, 0, nil, merged))
}

// —— Section 2 triangle algorithms ——

// isTriangleSample reports whether s is the triangle (the connected
// 2-regular sample on three nodes).
func isTriangleSample(s *Sample) bool {
	d, reg := s.IsRegular()
	return s.P() == 3 && reg && d == 2
}

// triangleStrategy builds the row of one Section 2 baseline: priced by its
// exact closed forms, probed and run through the algorithm's one job.
// Adaptive probing tries no raised bucket counts (no ladder): raising b for
// Partition or Multiway grows shipping superlinearly for the same straggler
// relief.
func triangleStrategy(id PlanStrategy, name, flag string, algo triangle.Algo) strategyDef {
	return strategyDef{
		id: id, name: name, flag: flag,
		price: func(q *planQuery) Candidate {
			if !isTriangleSample(q.s) {
				return Candidate{Reason: "triangle algorithms require the triangle sample"}
			}
			b := q.o.core.Buckets
			if b <= 0 {
				b = algo.BucketsFor(int64(q.o.core.TargetReducers))
			}
			if b < algo.MinB {
				return Candidate{Reason: fmt.Sprintf("%s needs b >= %d, got %d", name, algo.MinB, b)}
			}
			return bucketCandidate(q, b, algo.Reducers(b), algo.CommPerEdge(b))
		},
		probe: func(pr *prober, c *Candidate) {
			ls, err := algo.ProbeLoads(pr.g, c.Buckets, pr.o.core.Seed, pr.cfg)
			if err != nil {
				return
			}
			pr.applyOnly(c, pr.row(c.Strategy, c.Buckets, c.Shares, ls))
		},
		run: func(ctx context.Context, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
			b := p.Chosen.Buckets
			m, err := algo.Run(ctx, p.graph, b, p.opts.core.Seed, p.opts.core.Engine, tripleSink(sink))
			if err != nil {
				return nil, err
			}
			return &Result{Count: m.Outputs, Jobs: []JobStats{{
				Label:                fmt.Sprintf("%v b=%d", p.Strategy, b),
				Shares:               shares.Uniform(3, b),
				PredictedCommPerEdge: p.Chosen.CommPerEdge,
				OptimalCommPerEdge:   p.Chosen.CommPerEdge,
				Metrics:              m,
				ObservedSkew:         m.Skew(),
			}}}, nil
		},
	}
}

// tripleSink adapts an instance sink to the triangle packages' fixed-size
// triples, carving each instance from one slab; no sink stays no sink. The
// engine serializes its calls, so the slab needs no lock.
func tripleSink(sink func([]Node) bool) func([3]Node) bool {
	if sink == nil {
		return nil
	}
	var slab graph.Slab
	return func(t [3]Node) bool { return sink(slab.Copy(t[:])) }
}

// —— The two-round cascade baseline ——

// priceTwoRound costs the cascade from the data graph itself: round 1 ships
// 2 pairs per edge, round 2 ships every wedge plus each edge
// once, so the total is 3m + W with W the exact wedge count (an O(n + m)
// scan — the planner pays it to expose how badly the cascade loses on
// skewed graphs). The exact integer 3m + W is EstComm directly —
// round-tripping it through the per-edge float (as finishCandidate does for
// the model-priced candidates) loses ulps on large graphs and could flip
// Auto tie-breaks; CommPerEdge is derived for display instead.
func priceTwoRound(q *planQuery) Candidate {
	if !isTriangleSample(q.s) {
		return Candidate{Reason: "the two-round cascade supports the triangle sample only"}
	}
	w := tworound.WedgeCount(q.g)
	c := Candidate{
		Viable:   true,
		Jobs:     2,
		Rounds:   2,
		Reducers: int64(q.g.NumNodes()) + q.m + w, // upper bound on distinct keys
		EstComm:  3*q.m + w,
	}
	c.EstShuffleBytes = c.EstComm * planPairOverhead
	if q.m > 0 {
		c.CommPerEdge = float64(c.EstComm) / float64(q.m)
	}
	return c
}

// probeTwoRound needs no map pass: round 1's loads are the degree
// distribution, computed in O(n + m). Comm keeps the exact two-round total
// (3m + W); the straggler is round 1's hottest node (round 2's loads are
// unknowable before the wedges exist, which is what mid-query re-planning
// is for).
func probeTwoRound(pr *prober, c *Candidate) {
	r1 := tworound.Round1LoadStats(pr.g)
	row := pr.row(c.Strategy, 0, nil, r1)
	row.Comm = c.EstComm
	row.AdjustedCost = adjustedCost(row.Comm, r1.MaxLoad, pr.k)
	pr.applyOnly(c, row)
}

// runTwoRound executes the cascade, one JobStats entry per round. Under
// WithAdaptive the cascade is re-planned before it starts: round 1's
// reducer loads are exact without running it (tworound.Round1LoadStats —
// they are the degree distribution), so a skew over the threshold runs the
// query as the one-round bucket-oriented job at the plan's probed
// configuration instead, before a single wedge is built.
func runTwoRound(ctx context.Context, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
	if p.opts.core.AdaptiveReplan {
		if r1 := tworound.Round1LoadStats(p.graph); r1.Skew() > p.opts.core.ResolvedSkewThreshold() {
			return replanTwoRound(ctx, p, r1, sink)
		}
	}
	tr, err := tworound.Triangles(ctx, p.graph, p.opts.core.Engine, tripleSink(sink))
	if err != nil {
		return nil, err
	}
	res := &Result{Count: tr.Rounds[1].Metrics.Outputs}
	m := float64(p.graph.NumEdges())
	for i, round := range tr.Rounds {
		predicted := 2.0 // round 1: each edge plays two roles
		if i == 1 && m > 0 {
			predicted = float64(tr.Wedges)/m + 1 // wedges + the edge relation
		}
		res.Jobs = append(res.Jobs, JobStats{
			Label:                round.Name,
			PredictedCommPerEdge: predicted,
			OptimalCommPerEdge:   predicted,
			Metrics:              round.Metrics,
			ObservedSkew:         round.Metrics.Skew(),
		})
	}
	return res, nil
}

// replanTwoRound runs the query as the one-round bucket-oriented job —
// Section 2.3's algorithm (identical triangle set; only the configuration
// changed) — once round 1's exact loads r1 proved skewed. Jobs keeps a
// round-1 entry so the switch is auditable: its ObservedSkew is r1's, and
// its Metrics are zero, since nothing was shipped.
func replanTwoRound(ctx context.Context, p *QueryPlan, r1 mapreduce.LoadStats, sink func([]Node) bool) (*Result, error) {
	opt := p.opts.core
	opt.Buckets = p.fallbackBuckets()
	fb, err := core.Enumerate(ctx, p.graph, p.sample, core.BucketOriented, p.qs, opt, sink)
	if err != nil {
		return nil, err
	}
	skew := r1.Skew()
	js := fb.Jobs[0]
	js.Label = fmt.Sprintf("replanned from skew %.2f → %v b=%d", skew, StrategyBucketOriented, opt.Buckets)
	js.Replanned = true
	return &Result{Count: fb.Count, Jobs: []JobStats{{
		Label:                "wedge join E(X,Y) ⋈ E(Y,Z) (not run)",
		PredictedCommPerEdge: 2,
		OptimalCommPerEdge:   2,
		ObservedSkew:         skew,
	}, js}}, nil
}

// fallbackBuckets picks the bucket count the cascade's mid-query re-plan
// switches to: the plan's bucket-oriented candidate's (probe-informed under
// WithAdaptive), or the Theorem 4.2 derivation if the candidate is somehow
// absent.
func (p *QueryPlan) fallbackBuckets() int {
	for _, c := range p.Candidates {
		if c.Strategy == StrategyBucketOriented && c.Viable && c.Buckets > 0 {
			return c.Buckets
		}
	}
	return p.opts.core.BucketsFor(3)
}
