package subgraphmr

import (
	"fmt"
	"strings"

	"subgraphmr/internal/core"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/shares"
)

// Candidate is one strategy the planner evaluated, with its estimated
// execution shape and cost. Non-viable candidates carry the reason they
// were ruled out (e.g. a triangle-only algorithm for a square sample).
type Candidate struct {
	// Strategy is the candidate strategy.
	Strategy PlanStrategy
	// Viable reports whether the strategy can run this query at all.
	Viable bool
	// Reason explains a non-viable candidate (empty when viable).
	Reason string `json:",omitempty"`
	// Buckets is the resolved bucket count for bucket-style strategies
	// (0 for share-based ones).
	Buckets int `json:",omitempty"`
	// Shares is the per-variable integer share vector of a share-based
	// job, or the uniform bucket vector of a bucket-style one.
	Shares []int `json:",omitempty"`
	// JobShares lists per-job share vectors for CQOriented (one per CQ).
	JobShares [][]int `json:",omitempty"`
	// Jobs is the number of map-reduce jobs the strategy runs.
	Jobs int
	// Rounds is the number of map-reduce rounds (1 except the cascade).
	Rounds int
	// Reducers estimates the number of useful reducers (distinct keys).
	Reducers int64
	// CommPerEdge is the model-predicted communication per data edge.
	CommPerEdge float64
	// EstComm is CommPerEdge × |E| — the predicted key-value pairs
	// shipped, the quantity Auto minimizes (under WithAdaptive it is the
	// probed, exact pair count instead of the model estimate).
	EstComm int64
	// EstShuffleBytes roughly estimates the reduce-side shuffle footprint
	// (pairs × per-pair heap overhead), used for the spill prediction.
	EstShuffleBytes int64

	// The Observed* fields are filled by WithAdaptive's map-only load
	// probes (zero otherwise): the exact pairs the candidate's mapper
	// ships, the hottest reducer's input, the mean reducer input, and
	// their ratio — the measured counterpart of the closed-form estimates.
	ObservedComm     int64   `json:",omitempty"`
	ObservedMaxLoad  int64   `json:",omitempty"`
	ObservedMeanLoad float64 `json:",omitempty"`
	ObservedSkew     float64 `json:",omitempty"`
	// AdjustedCost is the skew-aware cost adaptive Auto minimizes:
	// max(ObservedComm, k × ObservedMaxLoad) — k × the parallel makespan
	// under k reducer slots, in pair units, so balanced candidates score
	// their communication and skewed ones their straggler.
	AdjustedCost int64 `json:",omitempty"`
	// Probed reports whether the adaptive planner probed this candidate.
	Probed bool `json:",omitempty"`
}

// QueryPlan is an explainable execution plan produced by Plan: the chosen
// strategy plus its predicted shape and cost, and every candidate the
// planner compared. Execute it with Run (materialized), Stream (callback),
// or Instances (iterator).
//
// A *QueryPlan is safe for concurrent execution: any number of goroutines
// may call Run, Stream and Instances on the same plan simultaneously (the
// plan-cache use case — internal/serve shares one cached plan across all
// concurrent requests for the same query). The guarantee holds because
// after Plan returns, every field — opts included — is treated as
// immutable by every execution path: each Run constructs its own jobs,
// sinks and engine state, and any path that needs a variant configuration
// (the distributed degradation ladder, the local fallback) copies the plan
// first (lp := *p) and mutates only the copy. That copy-before-mutate rule
// is the invariant new execution paths must keep; TestSharedPlanConcurrentExecution
// pins it under the race detector.
type QueryPlan struct {
	// Strategy is the chosen strategy (never StrategyAuto).
	Strategy PlanStrategy
	// Chosen is the chosen candidate's full estimate.
	Chosen Candidate
	// Candidates lists every evaluated candidate in planner (strategy
	// table) order.
	Candidates []Candidate
	// NumCQs is the number of conjunctive queries the CQ-based strategies
	// evaluate for this sample.
	NumCQs int
	// PredictedSpill reports whether the chosen strategy will spill: it
	// runs plain map-reduce jobs (the two-round cascade; the share-hashed
	// strategies never spill) and its estimated shuffle footprint exceeds
	// the configured memory budget (always false without a budget).
	PredictedSpill bool
	// Adaptive reports that WithAdaptive probed the candidates and the
	// plan was ranked by observed loads; Probes lists every probe row.
	Adaptive bool `json:",omitempty"`
	// SkewThreshold is the max/mean load ratio adaptive execution re-plans
	// at (only set when Adaptive).
	SkewThreshold float64 `json:",omitempty"`
	// Probes is the adaptive planner's probe table: one row per probed
	// configuration (bucket-style candidates are probed at raised bucket
	// counts too), in probing order — cheapest static estimate first.
	// Candidates whose static estimate already exceeds the best probed
	// adjusted cost are skipped (they cannot win) and have no rows.
	Probes []LoadProbe `json:",omitempty"`

	graph  *Graph
	sample *Sample
	// qs is the sample's compiled CQ set, built once by Plan and read by
	// every run of the plan (plan copies share it; nothing writes it), with
	// the evaluator sets and rendered CQs its jobs build on first use.
	qs *core.CQSet
	// opts is frozen once Plan returns: execution paths read it but never
	// write it (see the concurrency note on QueryPlan — variants copy the
	// plan first). Keeping it a value, not a pointer, makes lp := *p a
	// deep-enough copy: the only reference fields (workers,
	// core.Engine.Dist) are replaced wholesale by the paths that touch
	// them, never appended to.
	opts planOpts
	// enc memoizes the distributed wire encoding of the data graph. It is
	// a pointer so plan copies (lp := *p) share the one payload and so the
	// sync.Once inside is never copied after use.
	enc *encodedGraph
}

// planPairOverhead approximates the per-pair heap footprint of a plain
// job's reduce workers — the pair and its bucket byte in an arrival chunk,
// then its key and value again in the bucket-ordered slabs grouping builds
// — for the spill prediction and the service's admission. It intentionally
// errs high: predicting a spill that ends up borderline is more useful
// than missing one.
const planPairOverhead = 96

// Plan builds a cost-based execution plan for enumerating s in g. With
// StrategyAuto (the default) it estimates the communication cost of every
// viable strategy — the Section 4 share models for the CQ strategies, the
// closed forms of Sections 2 and 4.5 for the bucket and triangle
// algorithms, and the measured wedge count for the two-round cascade — and
// picks the cheapest (ties break toward the earlier candidate, so the
// paper's preferred bucket-oriented strategy wins equal-cost contests).
// The returned plan records every candidate for inspection via Explain.
func Plan(g *Graph, s *Sample, opts ...Option) (*QueryPlan, error) {
	if g == nil || s == nil {
		return nil, fmt.Errorf("subgraphmr: Plan requires a data graph and a sample")
	}
	if !s.IsConnected() {
		return nil, fmt.Errorf("subgraphmr: map-reduce enumeration requires a connected sample graph")
	}
	o := defaultPlanOpts()
	for _, fn := range opts {
		fn(&o)
	}
	if o.core.TargetReducers <= 0 {
		o.core.TargetReducers = defaultTargetReducers
	}
	if s.P() > graph.MaxKeyVars {
		return nil, fmt.Errorf("subgraphmr: sample has %d nodes; reducer keys hold at most %d", s.P(), graph.MaxKeyVars)
	}
	if o.core.Buckets > shares.MaxIntShare {
		return nil, fmt.Errorf("subgraphmr: bucket count %d exceeds %d", o.core.Buckets, shares.MaxIntShare)
	}
	qs, err := core.CompileCQs(s, o.core)
	if err != nil {
		return nil, fmt.Errorf("subgraphmr: WithCycleCQs: %w", err)
	}
	q := &planQuery{g: g, s: s, p: s.P(), m: int64(g.NumEdges()), qs: qs.CQs, o: o}

	cands := make([]Candidate, len(strategies))
	for i, def := range strategies {
		cands[i] = def.price(q)
		cands[i].Strategy = def.id
	}

	var probes []LoadProbe
	if o.core.AdaptiveReplan {
		probes = probeCandidates(q, cands)
	}

	cost := func(c Candidate) int64 {
		if o.core.AdaptiveReplan && c.Probed {
			return c.AdjustedCost
		}
		return c.EstComm
	}
	chosen := -1
	if o.strategy == StrategyAuto {
		for i, c := range cands {
			if !c.Viable {
				continue
			}
			if chosen < 0 || cost(c) < cost(cands[chosen]) {
				chosen = i
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("subgraphmr: no viable strategy for sample %v", s)
		}
	} else {
		for i, c := range cands {
			if c.Strategy == o.strategy {
				chosen = i
				break
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("subgraphmr: unknown strategy %v", o.strategy)
		}
		if !cands[chosen].Viable {
			return nil, fmt.Errorf("subgraphmr: strategy %v not viable here: %s", o.strategy, cands[chosen].Reason)
		}
	}

	plan := &QueryPlan{
		Strategy:   cands[chosen].Strategy,
		Chosen:     cands[chosen],
		Candidates: cands,
		NumCQs:     len(qs.CQs),
		graph:      g,
		sample:     s,
		qs:         qs,
		opts:       o,
		enc:        &encodedGraph{},
	}
	if o.core.AdaptiveReplan {
		plan.Adaptive = true
		plan.SkewThreshold = o.core.ResolvedSkewThreshold()
		plan.Probes = probes
	}
	// Only a plain job spills, and only the cascade runs plain jobs: every
	// other strategy's block job holds its values once and ignores the budget.
	if budget := o.core.Engine.MemoryBudget; budget > 0 && plan.Strategy == StrategyTwoRound && plan.Chosen.EstShuffleBytes > budget {
		plan.PredictedSpill = true
	}
	return plan, nil
}

// Graph returns the data graph the plan was built for.
func (p *QueryPlan) Graph() *Graph { return p.graph }

// Sample returns the sample graph the plan was built for.
func (p *QueryPlan) Sample() *Sample { return p.sample }

// Explain renders the plan: the chosen strategy with its predicted shape
// (buckets/shares, reducers, jobs, communication, spill) followed by the
// full candidate table in planner order, the chosen row starred.
func (p *QueryPlan) Explain() string {
	var sb strings.Builder
	g, s := p.graph, p.sample
	fmt.Fprintf(&sb, "query: enumerate %v (p=%d) in graph n=%d m=%d\n",
		s, s.P(), g.NumNodes(), g.NumEdges())
	fmt.Fprintf(&sb, "plan: %v", p.Strategy)
	if p.opts.strategy == StrategyAuto {
		if p.Adaptive {
			sb.WriteString(" (auto: lowest skew-adjusted cost from load probes)")
		} else {
			sb.WriteString(" (auto: lowest estimated communication)")
		}
	}
	sb.WriteByte('\n')
	c := p.Chosen
	if c.Buckets > 0 {
		fmt.Fprintf(&sb, "  buckets: b=%d\n", c.Buckets)
	}
	if len(c.Shares) > 0 {
		fmt.Fprintf(&sb, "  shares: %v\n", c.Shares)
	}
	for i, js := range c.JobShares {
		fmt.Fprintf(&sb, "  job %d shares: %v\n", i+1, js)
	}
	fmt.Fprintf(&sb, "  jobs: %d, rounds: %d, est. reducers: %d\n", c.Jobs, c.Rounds, c.Reducers)
	fmt.Fprintf(&sb, "  est. communication: %.2f pairs/edge, %d total\n", c.CommPerEdge, c.EstComm)
	fmt.Fprintf(&sb, "  CQs: %d\n", p.NumCQs)
	if budget := p.opts.core.Engine.MemoryBudget; budget > 0 && p.Strategy == StrategyTwoRound {
		verdict := "fits in memory"
		if p.PredictedSpill {
			verdict = "will spill to disk"
		}
		fmt.Fprintf(&sb, "  memory: est. shuffle %d bytes vs budget %d — predicted: %s\n",
			c.EstShuffleBytes, budget, verdict)
	} else if budget > 0 {
		// Every other strategy runs block jobs, which never build the
		// replicated pairs EstShuffleBytes prices.
		fmt.Fprintf(&sb, "  memory: runs in memory — a block job holds each edge once; budget %d does not apply\n", budget)
	}
	sb.WriteString("candidates:\n")
	for _, cand := range p.Candidates {
		marker := " "
		if cand.Strategy == p.Strategy {
			marker = "*"
		}
		if !cand.Viable {
			fmt.Fprintf(&sb, "  %s %-24v not viable: %s\n", marker, cand.Strategy, cand.Reason)
			continue
		}
		fmt.Fprintf(&sb, "  %s %-24v %10.2f pairs/edge  %12d total  reducers=%d",
			marker, cand.Strategy, cand.CommPerEdge, cand.EstComm, cand.Reducers)
		if cand.Probed {
			fmt.Fprintf(&sb, "  adjusted=%d", cand.AdjustedCost)
		}
		sb.WriteByte('\n')
	}
	if p.Adaptive && len(p.Probes) > 0 {
		fmt.Fprintf(&sb, "probes (adaptive, skew threshold %.1f):\n", p.SkewThreshold)
		for _, pr := range p.Probes {
			marker := " "
			if pr.Applied {
				marker = "*"
			}
			config := ""
			switch {
			case pr.Buckets > 0:
				config = fmt.Sprintf("b=%d", pr.Buckets)
			case len(pr.Shares) > 0:
				config = fmt.Sprintf("shares=%v", pr.Shares)
			}
			fmt.Fprintf(&sb, "  %s %-24v %-12s comm=%-10d keys=%-8d maxload=%-8d mean=%-9.1f skew=%-7.2f adjusted=%d\n",
				marker, pr.Strategy, config, pr.Comm, pr.Keys, pr.MaxLoad, pr.MeanLoad, pr.Skew, pr.AdjustedCost)
		}
	}
	return sb.String()
}
