package subgraphmr

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"subgraphmr/internal/directed"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/tworound"
)

// planSamples is the acceptance corpus: the paper's Fig. 3/4 samples plus
// the 5-cycle.
func planSamples() []struct {
	name string
	s    *Sample
} {
	return []struct {
		name string
		s    *Sample
	}{
		{"triangle", Triangle()},
		{"square", Square()},
		{"lollipop", Lollipop()},
		{"c5", CycleSample(5)},
	}
}

// TestAutoPicksCheapest checks StrategyAuto selects the viable candidate
// with the lowest estimated communication on every acceptance sample.
func TestAutoPicksCheapest(t *testing.T) {
	g := Gnm(300, 1200, 7)
	for _, tc := range planSamples() {
		plan, err := Plan(g, tc.s, WithTargetReducers(512))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if plan.Strategy == StrategyAuto {
			t.Fatalf("%s: auto did not resolve to a concrete strategy", tc.name)
		}
		var cheapest int64 = -1
		for _, c := range plan.Candidates {
			if c.Viable && (cheapest < 0 || c.EstComm < cheapest) {
				cheapest = c.EstComm
			}
		}
		if plan.Chosen.EstComm != cheapest {
			t.Errorf("%s: chose %v at %d est. pairs, cheapest viable candidate costs %d\n%s",
				tc.name, plan.Strategy, plan.Chosen.EstComm, cheapest, plan.Explain())
		}
	}
}

// TestAutoPrefersSharesOnStars checks the planner actually switches
// strategies when share optimization wins: a star's leaves all take share
// 1, so variable-oriented ships far fewer copies than the uniform bucket
// scheme. The budget must keep the center's share within the engine's
// 255-per-variable limit (a star's center takes the whole budget), or the
// candidate is correctly non-viable — TestPlanRunParityExtremeReducers
// covers that side.
func TestAutoPrefersSharesOnStars(t *testing.T) {
	g := Gnm(300, 1200, 7)
	plan, err := Plan(g, StarSample(5), WithTargetReducers(200))
	if err != nil {
		t.Fatal(err)
	}
	var bucket, variable Candidate
	for _, c := range plan.Candidates {
		switch c.Strategy {
		case StrategyBucketOriented:
			bucket = c
		case StrategyVariableOriented:
			variable = c
		}
	}
	if !bucket.Viable || !variable.Viable {
		t.Fatalf("expected both CQ strategies viable:\n%s", plan.Explain())
	}
	if variable.EstComm >= bucket.EstComm {
		t.Skipf("share optimization did not beat buckets on this star (%d vs %d)",
			variable.EstComm, bucket.EstComm)
	}
	if plan.Strategy != StrategyVariableOriented {
		t.Errorf("variable-oriented is cheapest (%d vs bucket %d) but auto chose %v",
			variable.EstComm, bucket.EstComm, plan.Strategy)
	}
}

// TestExplainMatchesExecution checks, per acceptance sample and strategy,
// that the plan's predicted reducer/share configuration is exactly what
// the executed jobs report, and that Explain renders it.
func TestExplainMatchesExecution(t *testing.T) {
	ctx := context.Background()
	g := Gnm(200, 800, 5)
	for _, tc := range planSamples() {
		want := int64(len(BruteForce(g, tc.s)))
		for _, st := range []PlanStrategy{StrategyAuto, StrategyBucketOriented, StrategyVariableOriented, StrategyCQOriented} {
			label := fmt.Sprintf("%s/%v", tc.name, st)
			plan, err := Plan(g, tc.s, WithStrategy(st), WithTargetReducers(256), WithSeed(5))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, err := Run(ctx, plan)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Count != want {
				t.Errorf("%s: count %d, oracle %d", label, res.Count, want)
			}
			explain := plan.Explain()
			switch plan.Strategy {
			case StrategyBucketOriented, StrategyDecomposed:
				if !reflect.DeepEqual(res.Jobs[0].Shares, plan.Chosen.Shares) {
					t.Errorf("%s: executed shares %v, plan predicted %v", label, res.Jobs[0].Shares, plan.Chosen.Shares)
				}
				if !strings.Contains(explain, fmt.Sprintf("b=%d", plan.Chosen.Buckets)) {
					t.Errorf("%s: Explain does not show b=%d:\n%s", label, plan.Chosen.Buckets, explain)
				}
			case StrategyVariableOriented:
				if !reflect.DeepEqual(res.Jobs[0].Shares, plan.Chosen.Shares) {
					t.Errorf("%s: executed shares %v, plan predicted %v", label, res.Jobs[0].Shares, plan.Chosen.Shares)
				}
				if !strings.Contains(explain, fmt.Sprint(plan.Chosen.Shares)) {
					t.Errorf("%s: Explain does not show shares %v:\n%s", label, plan.Chosen.Shares, explain)
				}
			case StrategyCQOriented:
				if len(res.Jobs) != len(plan.Chosen.JobShares) {
					t.Fatalf("%s: %d executed jobs, plan predicted %d", label, len(res.Jobs), len(plan.Chosen.JobShares))
				}
				for i, job := range res.Jobs {
					if !reflect.DeepEqual(job.Shares, plan.Chosen.JobShares[i]) {
						t.Errorf("%s job %d: executed shares %v, plan predicted %v", label, i, job.Shares, plan.Chosen.JobShares[i])
					}
				}
			}
			// Predicted communication per edge must match the executed
			// jobs' model prediction (same models, same rounding).
			var predicted float64
			for _, job := range res.Jobs {
				predicted += job.PredictedCommPerEdge
			}
			if diff := predicted - plan.Chosen.CommPerEdge; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s: executed predicted comm/edge %.4f, plan estimated %.4f", label, predicted, plan.Chosen.CommPerEdge)
			}
			// The plan's reducer estimate upper-bounds what actually
			// received data.
			var distinct int64
			for _, job := range res.Jobs {
				distinct += job.Metrics.DistinctKeys
			}
			if distinct > plan.Chosen.Reducers {
				t.Errorf("%s: %d reducers received data, plan estimated at most %d", label, distinct, plan.Chosen.Reducers)
			}
		}
	}
}

// TestUnifiedResultAcrossStrategies runs every strategy on the triangle
// sample — including the Section 2 algorithms and the cascade — and checks
// they agree with the oracle through the one Result shape.
func TestUnifiedResultAcrossStrategies(t *testing.T) {
	ctx := context.Background()
	g := Gnm(150, 600, 11)
	want := CountTriangles(g)
	for _, st := range []PlanStrategy{
		StrategyBucketOriented, StrategyVariableOriented, StrategyCQOriented,
		StrategyDecomposed, StrategyTwoRound,
		StrategyTrianglePartition, StrategyTriangleMultiway,
	} {
		plan, err := Plan(g, Triangle(), WithStrategy(st), WithTargetReducers(64), WithSeed(2))
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		res, err := Run(ctx, plan)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if res.Count != want {
			t.Errorf("%v: %d triangles, oracle %d", st, res.Count, want)
		}
		if int64(len(res.Instances)) != want {
			t.Errorf("%v: materialized %d instances, count says %d", st, len(res.Instances), want)
		}
		if len(res.Jobs) == 0 || res.TotalComm() == 0 {
			t.Errorf("%v: no job statistics in unified result", st)
		}
		if st == StrategyTwoRound && len(res.Jobs) != 2 {
			t.Errorf("two-round cascade reported %d jobs, want one per round", len(res.Jobs))
		}

		// WithCountOnly: same exact count, nothing materialized.
		planC, err := Plan(g, Triangle(), WithStrategy(st), WithTargetReducers(64), WithSeed(2), WithCountOnly())
		if err != nil {
			t.Fatalf("%v count-only: %v", st, err)
		}
		resC, err := Run(ctx, planC)
		if err != nil {
			t.Fatalf("%v count-only: %v", st, err)
		}
		if resC.Count != want || resC.Instances != nil {
			t.Errorf("%v count-only: count=%d (want %d), instances=%d (want none)",
				st, resC.Count, want, len(resC.Instances))
		}
	}
}

// TestPlanErrors covers the planner's validation paths.
func TestPlanErrors(t *testing.T) {
	g := Gnm(50, 120, 1)
	if _, err := Plan(g, Square(), WithStrategy(StrategyTrianglePartition)); err == nil {
		t.Error("triangle-only strategy accepted a square sample")
	}
	if _, err := Plan(g, Square(), WithStrategy(StrategyTwoRound)); err == nil {
		t.Error("two-round cascade accepted a square sample")
	}
	if _, err := Plan(g, sample.Complete(12)); err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("Plan on K12 (66 edges): %v, want an error naming the 64-edge limit", err)
	}
	if _, err := Plan(nil, Triangle()); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Plan(g, nil); err == nil {
		t.Error("nil sample accepted")
	}
	disconnected, err := NewSample(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(g, disconnected); err == nil {
		t.Error("disconnected sample accepted")
	}
	if _, err := Plan(g, Triangle(), WithBuckets(400)); err == nil {
		t.Error("bucket count over 255 accepted at Plan time")
	}
	if _, err := Plan(g, Triangle(), WithStrategy(StrategyTrianglePartition), WithBuckets(2)); err == nil {
		t.Error("Partition with b=2 accepted at Plan time (needs b >= 3)")
	}
}

// TestAutoNeverPicksUnrunnablePlan pins the WithBuckets(2) regression:
// PartitionCommPerEdge(2) is 0, and the planner used to hand that bogus
// zero-cost candidate to Auto, producing a plan Run rejects.
func TestAutoNeverPicksUnrunnablePlan(t *testing.T) {
	g := Gnm(60, 200, 1)
	plan, err := Plan(g, Triangle(), WithBuckets(2))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy == StrategyTrianglePartition {
		t.Fatalf("auto chose Partition with b=2, which cannot run:\n%s", plan.Explain())
	}
	res, err := Run(context.Background(), plan)
	if err != nil {
		t.Fatalf("auto-chosen plan failed to run: %v", err)
	}
	if res.Count != CountTriangles(g) {
		t.Errorf("count %d, oracle %d", res.Count, CountTriangles(g))
	}
}

// TestPlanRunParityExtremeReducers pins the planner/execution parity
// contract across extreme TargetReducers: whenever Plan returns a plan,
// Run must execute it — derived bucket counts and integer shares that the
// engine cannot encode (over 255) must surface as plan-time non-viability,
// never as a Run-time error. (The star's center share equals the whole
// budget, so it crosses the limit first.)
func TestPlanRunParityExtremeReducers(t *testing.T) {
	ctx := context.Background()
	g := Gnm(40, 100, 1)
	samples := []struct {
		name string
		s    *Sample
	}{
		{"triangle", Triangle()},
		{"square", Square()},
		{"star5", StarSample(5)},
	}
	strategies := []PlanStrategy{
		StrategyAuto, StrategyBucketOriented, StrategyVariableOriented,
		StrategyCQOriented, StrategyDecomposed,
	}
	for _, k := range []int{-1, 0, 1, 2, 64, 1024, 100000, 1000000} {
		for _, tc := range samples {
			if tc.name == "square" && k > 1024 {
				// The square's shares stay within the limit at any budget;
				// the extreme-k rows exist for the capped derivations and
				// the star's share blow-up, so skip the slow p=4 runs.
				continue
			}
			want := int64(len(BruteForce(g, tc.s)))
			for _, st := range strategies {
				label := fmt.Sprintf("%s/%v/k=%d", tc.name, st, k)
				plan, err := Plan(g, tc.s, WithStrategy(st), WithTargetReducers(k), WithSeed(1))
				if err != nil {
					continue // non-viable at plan time: Plan and Run agree by construction
				}
				res, err := Run(ctx, plan)
				if err != nil {
					t.Errorf("%s: Plan succeeded but Run failed: %v\n%s", label, err, plan.Explain())
					continue
				}
				if res.Count != want {
					t.Errorf("%s: %d instances, oracle %d", label, res.Count, want)
				}
			}
		}
	}
}

// TestShareLimitNonViableAtPlanTime pins the headline regression directly:
// a budget whose integer shares exceed the engine's 255 limit used to
// produce a Viable variable-oriented candidate that Run then rejected.
func TestShareLimitNonViableAtPlanTime(t *testing.T) {
	g := Gnm(40, 100, 1)
	plan, err := Plan(g, StarSample(5), WithTargetReducers(1000000))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Candidates {
		switch c.Strategy {
		case StrategyVariableOriented, StrategyCQOriented:
			if c.Viable {
				t.Errorf("%v viable at k=10^6 on a star — its center share cannot encode", c.Strategy)
			} else if !strings.Contains(c.Reason, "exceeds the engine limit") {
				t.Errorf("%v non-viable for the wrong reason: %q", c.Strategy, c.Reason)
			}
		case StrategyBucketOriented, StrategyDecomposed:
			if !c.Viable {
				t.Errorf("%v should stay viable (derived b is capped): %q", c.Strategy, c.Reason)
			}
			if c.Buckets > 255 {
				t.Errorf("%v derived b=%d over the encoding limit", c.Strategy, c.Buckets)
			}
		}
	}
	if _, err := Run(context.Background(), plan); err != nil {
		t.Errorf("auto plan at k=10^6 failed to run: %v", err)
	}
}

// TestCascadeIntegerEstComm pins the cascade candidate's exact integer
// cost: EstComm must be precisely 3m + W (not a float round-trip through
// CommPerEdge, which drifts on large totals and can flip Auto tie-breaks).
func TestCascadeIntegerEstComm(t *testing.T) {
	g := PowerLaw(5000, 12, 2.1, 3)
	plan, err := Plan(g, Triangle())
	if err != nil {
		t.Fatal(err)
	}
	m := int64(g.NumEdges())
	want := 3*m + tworound.WedgeCount(g)
	for _, c := range plan.Candidates {
		if c.Strategy != StrategyTwoRound {
			continue
		}
		if c.EstComm != want {
			t.Errorf("cascade EstComm %d, exact 3m+W = %d", c.EstComm, want)
		}
		if got := float64(c.EstComm) / float64(m); c.CommPerEdge != got {
			t.Errorf("cascade CommPerEdge %v, want derived %v", c.CommPerEdge, got)
		}
	}
}

// TestPredictedSpill checks the planner's spill prediction against the
// engine under a 4 KiB budget: the cascade, whose plain jobs spill, must be
// predicted to spill and must actually spill; bucket-oriented, a block job
// that never spills, must be predicted not to and must not.
func TestPredictedSpill(t *testing.T) {
	g := Gnm(150, 600, 11)
	for _, tc := range []struct {
		st     PlanStrategy
		spill  bool
		memory string // Explain's memory line
	}{
		{StrategyTwoRound, true, "memory: est. shuffle 333408 bytes vs budget 4096 — predicted: will spill to disk\n"},
		// A block job ignores the budget; Explain must not price it by the
		// pairs it never builds.
		{StrategyBucketOriented, false, "memory: runs in memory — a block job holds each edge once; budget 4096 does not apply\n"},
	} {
		plan, err := Plan(g, Triangle(), WithStrategy(tc.st), WithTargetReducers(64), WithMemoryBudget(4096), WithSpillDir(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		if plan.PredictedSpill != tc.spill {
			t.Errorf("%v: 4 KiB budget against %d estimated pairs: predicted spill %v, want %v", tc.st, plan.Chosen.EstComm, plan.PredictedSpill, tc.spill)
		}
		if strings.Contains(plan.Explain(), "will spill") != tc.spill {
			t.Errorf("%v: Explain announces a spill: %v, want %v\n%s", tc.st, !tc.spill, tc.spill, plan.Explain())
		}
		if !strings.Contains(plan.Explain(), "\n  "+tc.memory) || strings.Count(plan.Explain(), "memory:") != 1 {
			t.Errorf("%v: Explain's memory line is not %q:\n%s", tc.st, tc.memory, plan.Explain())
		}
		res, err := Run(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		var spilled int64
		for _, job := range res.Jobs {
			spilled += job.Metrics.SpilledPairs
		}
		if (spilled > 0) != tc.spill {
			t.Errorf("%v: predicted spill %v, the engine spilled %d pairs", tc.st, plan.PredictedSpill, spilled)
		}
		if res.Count != CountTriangles(g) {
			t.Errorf("%v: count %d under a budget, oracle %d", tc.st, res.Count, CountTriangles(g))
		}
	}

	roomy, err := Plan(g, Triangle(), WithStrategy(StrategyTwoRound), WithTargetReducers(64), WithMemoryBudget(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if roomy.PredictedSpill {
		t.Error("1 GiB budget predicted to spill")
	}
}

// TestPatternSizeLimit: a reducer key has 16 lanes, so a sample or directed
// pattern with more nodes is refused up front with an error naming the
// limit (it used to be bounded only by p! — Plan would never have come
// back). The largest sample the CLI and service can name, c12, still plans.
func TestPatternSizeLimit(t *testing.T) {
	var edges [][2]int
	var arcs []PatternArc
	for i := 0; i < 16; i++ {
		edges = append(edges, [2]int{i, i + 1})
		arcs = append(arcs, PatternArc{From: i, To: i + 1})
	}
	path17, err := NewSample(17, edges)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(Gnm(30, 60, 1), path17); err == nil || !strings.Contains(err.Error(), "at most 16") {
		t.Errorf("Plan on a 17-node path: %v, want an error naming the 16-node limit", err)
	}
	dipath17, err := NewDiPattern(17, arcs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = EnumerateDirectedContext(t.Context(), directed.RandomDiGraph(30, 60, 1, 1), dipath17, nil)
	if err == nil || !strings.Contains(err.Error(), "16-node limit") {
		t.Errorf("EnumerateDirectedContext on a 17-node path: %v, want an error naming the 16-node limit", err)
	}
	if plan, err := Plan(Gnm(30, 60, 1), NamedSample("c12")); err != nil {
		t.Errorf("Plan on c12: %v", err)
	} else if plan.NumCQs != 191 {
		t.Errorf("Plan on c12: %d CQs, want 191 (one per orbit of its acyclic orientations)", plan.NumCQs)
	}
}

// TestRunReusesPlanCQs pins that a plan's CQ set is compiled once, by
// Plan, and that its evaluator set and rendered CQs are built once too, on
// the first run: a warmed count-only Run of a bucket-oriented square plan
// on Gnm(300,1500) takes at most 137 allocations (125 measured). When every
// Run compiled the set again it took 539, of which compilation alone was
// 237; when every Run built the evaluator set and rendered the CQs, 240.
func TestRunReusesPlanCQs(t *testing.T) {
	plan, err := Plan(Gnm(300, 1500, 1), Square(), WithStrategy(StrategyBucketOriented), WithCountOnly())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var count int64
	run := func() {
		res, err := Run(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		count = res.Count
	}
	run()
	want := count
	if allocs := testing.AllocsPerRun(10, run); allocs > 137 {
		t.Errorf("a warmed Run took %.0f allocations, want at most 137", allocs)
	}
	if count != want || plan.NumCQs != len(plan.qs.CQs) {
		t.Errorf("count %d after warm-up %d; plan prices %d CQs, holds %d", count, want, plan.NumCQs, len(plan.qs.CQs))
	}
}
