package subgraphmr

import (
	"math"
	"sort"

	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/shares"
)

// This file implements WithAdaptive's pre-run probing: before committing
// to a strategy, the planner measures each viable candidate's actual
// reducer loads with a map-only pass over the exact mapper (and seed) the
// candidate would execute — bounded work: pairs are counted per key, never
// grouped or reduced. The closed-form estimates price uniform graphs; the
// probes see the hub that concentrates a power-law graph's edges on a few
// reducers, and the re-ranking makes such candidates pay for it.

// LoadProbe is one row of the adaptive planner's probe table: a candidate
// configuration and its observed loads. Bucket-style candidates are probed
// at raised bucket counts too ("split the hot reducers"), so a strategy can
// appear several times at different b.
type LoadProbe struct {
	// Strategy is the probed candidate's strategy.
	Strategy PlanStrategy
	// Buckets is the probed bucket count (bucket-style strategies).
	Buckets int `json:",omitempty"`
	// Shares is the probed share vector (share-based strategies).
	Shares []int `json:",omitempty"`
	// Comm is the observed communication: the exact key-value pairs the
	// configuration ships (for the cascade, the plan's exact 3m+W total).
	Comm int64
	// Keys is the number of reducers that would receive data (round 1
	// only, for the cascade).
	Keys int64
	// MaxLoad is the largest single reducer input observed.
	MaxLoad int64
	// MeanLoad is Comm / Keys (round-1 pairs over round-1 keys for the
	// cascade).
	MeanLoad float64
	// Skew is MaxLoad / MeanLoad.
	Skew float64
	// AdjustedCost is max(Comm, k × MaxLoad) — the skew-aware cost the
	// adaptive planner ranks by.
	AdjustedCost int64
	// Applied reports that this row's configuration was folded into its
	// candidate (for a bucket ladder, the winning rung).
	Applied bool
}

// adjustedCost is the makespan-style cost of observed loads under k reducer
// slots, in pair units: a balanced job costs its communication, a skewed
// one costs k × its straggler (the "curse of the last reducer" made
// explicit). Minimizing it trades total shipping against the hottest
// reducer the way wall-clock does.
func adjustedCost(comm, maxLoad, k int64) int64 {
	if s := k * maxLoad; s > comm {
		return s
	}
	return comm
}

// probeLadder returns the bucket counts to probe for a bucket-style
// candidate: the planned b plus doublings (capped at the encoding limit),
// stopping when the closed-form replication would exceed 16× the planned
// configuration's — a raised b splits hot reducers but multiplies
// communication, and rungs past that ratio cannot win the adjusted ranking
// at the skews the probes are meant to catch.
func probeLadder(b0 int, repl func(int) float64) []int {
	ladder := []int{b0}
	base := repl(b0)
	for _, mult := range []int{2, 4} {
		b := b0 * mult
		if b > shares.MaxIntShare {
			b = shares.MaxIntShare
		}
		if b <= ladder[len(ladder)-1] {
			break
		}
		if base > 0 && repl(b) > 16*base {
			break
		}
		ladder = append(ladder, b)
	}
	return ladder
}

// prober is the state of one Plan call's probing pass: the query, the
// resolved budget and engine configuration, and the probe table so far.
type prober struct {
	*planQuery
	k      int64
	cfg    mapreduce.Config
	probes []LoadProbe
	// coreBuckets is the winning rung of the Section 4.5 mapper's ladder,
	// once probed: bucket-oriented and decomposed ship edges through the
	// identical mapper, so one ladder serves both.
	coreBuckets *LoadProbe
}

func (pr *prober) row(st PlanStrategy, buckets int, sh []int, ls mapreduce.LoadStats) LoadProbe {
	return LoadProbe{
		Strategy:     st,
		Buckets:      buckets,
		Shares:       sh,
		Comm:         ls.Pairs,
		Keys:         ls.Keys,
		MaxLoad:      ls.MaxLoad,
		MeanLoad:     ls.MeanLoad(),
		Skew:         ls.Skew(),
		AdjustedCost: adjustedCost(ls.Pairs, ls.MaxLoad, pr.k),
	}
}

// observe folds an applied probe row into its candidate: the estimates
// become the observed values (EstComm is now exact) while CommPerEdge stays
// the closed form of the applied configuration, matching what the executed
// job will report as its prediction.
func observe(c *Candidate, row LoadProbe) {
	c.ObservedComm = row.Comm
	c.ObservedMaxLoad = row.MaxLoad
	c.ObservedMeanLoad = row.MeanLoad
	c.ObservedSkew = row.Skew
	c.AdjustedCost = row.AdjustedCost
	c.Probed = true
	c.EstComm = row.Comm
	c.EstShuffleBytes = row.Comm * planPairOverhead
}

// applyOnly records the single probe row of a candidate with one
// configuration and folds it in.
func (pr *prober) applyOnly(c *Candidate, row LoadProbe) {
	row.Applied = true
	pr.probes = append(pr.probes, row)
	observe(c, row)
}

// applyRung moves a bucket-style candidate to a probed rung's bucket count,
// re-deriving its closed forms there, and folds the observation in.
func applyRung(c *Candidate, row LoadProbe, comm func(int) float64, reducers func(int) int64) {
	c.Buckets = row.Buckets
	c.Shares = shares.Uniform(len(c.Shares), row.Buckets)
	c.CommPerEdge = comm(row.Buckets)
	c.Reducers = reducers(row.Buckets)
	observe(c, row)
}

// climb probes a bucket-style candidate at its planned b and, when ladder is
// set and no explicit WithBuckets pins b, along the b/2b/4b ladder; the rung
// with the lowest adjusted cost is applied to the candidate and returned.
func (pr *prober) climb(c *Candidate, ladder bool, comm func(int) float64, reducers func(int) int64,
	loads func(b int) (mapreduce.LoadStats, error)) (LoadProbe, bool) {
	rungs := []int{c.Buckets}
	if ladder && pr.o.core.Buckets == 0 {
		rungs = probeLadder(c.Buckets, comm)
	}
	best := -1
	for _, b := range rungs {
		ls, err := loads(b)
		if err != nil {
			continue
		}
		pr.probes = append(pr.probes, pr.row(c.Strategy, b, shares.Uniform(len(c.Shares), b), ls))
		if i := len(pr.probes) - 1; best < 0 || pr.probes[i].AdjustedCost < pr.probes[best].AdjustedCost {
			best = i
		}
	}
	if best < 0 {
		return LoadProbe{}, false
	}
	pr.probes[best].Applied = true
	applyRung(c, pr.probes[best], comm, reducers)
	return pr.probes[best], true
}

// probeCandidates measures every viable candidate's reducer loads and
// folds the observations back in: Observed*/AdjustedCost are set, and
// bucket-style candidates may move to a raised b when the probes show a
// raised configuration wins the adjusted ranking. cands is in table order
// and mutated in place; the returned rows are the full probe table in
// probing order.
func probeCandidates(q *planQuery, cands []Candidate) []LoadProbe {
	o := q.o
	pr := &prober{planQuery: q, k: int64(o.core.TargetReducers), cfg: o.core.Engine}

	// With a forced strategy only that candidate's probe can change the
	// plan, so the others' map passes would be pure waste — except the
	// §2.3 candidate when the cascade is forced, whose probed b is the
	// mid-query replan target.
	shouldProbe := func(st PlanStrategy) bool {
		if o.strategy == StrategyAuto || st == o.strategy {
			return true
		}
		return o.strategy == StrategyTwoRound && st == StrategyTriangleBucketOrdered
	}

	// Probe cheapest-first and prune candidates that cannot win: a probed
	// candidate's adjusted cost never undercuts its shipped pairs, so once
	// some candidate achieves bestAdjusted, any candidate whose static
	// EstComm already exceeds it cannot beat it and its map passes would be
	// pure waste — the probing stays on the top candidates. Forced
	// strategies bypass the pruning (their probe is the plan).
	order := make([]int, 0, len(cands))
	for i := range cands {
		if cands[i].Viable && shouldProbe(cands[i].Strategy) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return cands[order[a]].EstComm < cands[order[b]].EstComm })
	var bestAdjusted int64 = math.MaxInt64

	for _, i := range order {
		c := &cands[i]
		if o.strategy == StrategyAuto && c.EstComm > bestAdjusted {
			continue
		}
		strategies[i].probe(pr, c)
		if c.Probed && c.AdjustedCost < bestAdjusted {
			bestAdjusted = c.AdjustedCost
		}
	}
	return pr.probes
}
