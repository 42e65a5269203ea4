package subgraphmr

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"subgraphmr/internal/graph"
)

// hubGraph is the planted-hub skew fixture (graph.PlantedHub, shared with
// difftest.HubGraph): the bucket-oriented mapper concentrates the hub's
// edges on the reducers whose multiset contains the hub's bucket.
func hubGraph(n, ringNodes int) *Graph {
	return graph.PlantedHub(n, ringNodes)
}

// TestAdaptiveFlipsOnPlantedHub is the acceptance scenario: on a seeded
// power-law-style graph with a planted hub, the bucket-oriented probe
// observes MaxLoad ≥ 4× the mean, and Plan(..., WithAdaptive()) selects a
// different configuration than the static plan (a different strategy, or a
// raised bucket count splitting the hot reducers). The probe table renders
// in Explain, and both plans enumerate the identical instance set.
func TestAdaptiveFlipsOnPlantedHub(t *testing.T) {
	g := hubGraph(1200, 300)
	opts := []Option{WithTargetReducers(1024), WithSeed(7)}

	static, err := Plan(g, Triangle(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Plan(g, Triangle(), append(opts, WithAdaptive())...)
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.Adaptive || len(adaptive.Probes) == 0 {
		t.Fatalf("adaptive plan carries no probes: %+v", adaptive)
	}

	// The bucket-oriented probe at the static configuration must expose the
	// hub: max load at least 4× the mean.
	var bucketProbe *LoadProbe
	for i := range adaptive.Probes {
		pr := &adaptive.Probes[i]
		if pr.Strategy == StrategyBucketOriented && pr.Buckets == staticBuckets(static) {
			bucketProbe = pr
			break
		}
	}
	if bucketProbe == nil {
		t.Fatalf("no bucket-oriented probe at the static b=%d:\n%s", staticBuckets(static), adaptive.Explain())
	}
	if bucketProbe.Skew < 4 {
		t.Fatalf("planted hub should skew bucket-oriented ≥ 4× mean, observed %.2f (max=%d mean=%.1f)",
			bucketProbe.Skew, bucketProbe.MaxLoad, bucketProbe.MeanLoad)
	}

	if static.Strategy == adaptive.Strategy && static.Chosen.Buckets == adaptive.Chosen.Buckets {
		t.Errorf("adaptive plan kept the static configuration %v b=%d despite skew %.2f:\n%s",
			static.Strategy, static.Chosen.Buckets, bucketProbe.Skew, adaptive.Explain())
	}

	explain := adaptive.Explain()
	for _, want := range []string{"probes (adaptive", "maxload=", "skew=", "adjusted="} {
		if !strings.Contains(explain, want) {
			t.Errorf("Explain missing %q:\n%s", want, explain)
		}
	}

	// Both plans must enumerate the identical triangle set.
	want := CountTriangles(g)
	for name, plan := range map[string]*QueryPlan{"static": static, "adaptive": adaptive} {
		res, err := Run(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Count != want {
			t.Errorf("%s (%v b=%d): %d triangles, oracle %d", name, plan.Strategy, plan.Chosen.Buckets, res.Count, want)
		}
	}
	t.Logf("static: %v b=%d est=%d; adaptive: %v b=%d adjusted=%d (bucket probe skew %.2f)",
		static.Strategy, static.Chosen.Buckets, static.Chosen.EstComm,
		adaptive.Strategy, adaptive.Chosen.Buckets, adaptive.Chosen.AdjustedCost, bucketProbe.Skew)
}

// staticBuckets extracts the static plan's bucket-oriented candidate b.
func staticBuckets(p *QueryPlan) int {
	for _, c := range p.Candidates {
		if c.Strategy == StrategyBucketOriented {
			return c.Buckets
		}
	}
	return 0
}

// TestAdaptiveCQReplansMidQuery forces the cq-oriented job sequence on a
// skewed graph with a threshold any real skew breaches: the first job's
// observed skew must raise the reducer budget for the remaining jobs,
// marking them Replanned — and the instance set must still match the
// oracle exactly (re-planning moves instances between reducers, never in
// or out of the result).
func TestAdaptiveCQReplansMidQuery(t *testing.T) {
	g := hubGraph(120, 60)
	s := Square()
	plan, err := Plan(g, s, WithStrategy(StrategyCQOriented), WithTargetReducers(64),
		WithSeed(3), WithAdaptive(), WithSkewThreshold(1.01))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) < 2 {
		t.Fatalf("cq-oriented ran %d jobs; the replan test needs a multi-job sequence", len(res.Jobs))
	}
	replanned := 0
	for _, j := range res.Jobs {
		if j.Replanned {
			replanned++
			if !strings.Contains(j.Label, "replanned k=") {
				t.Errorf("replanned job label %q does not record the revised budget", j.Label)
			}
			if j.TargetReducers <= 64 {
				t.Errorf("replanned job kept budget %d, want > 64", j.TargetReducers)
			}
		}
	}
	if replanned == 0 {
		t.Fatalf("no job replanned despite threshold 1.01; per-job skews: %v", jobSkews(res))
	}
	if want := int64(len(BruteForce(g, s))); res.Count != want {
		t.Errorf("replanned sequence found %d instances, oracle %d", res.Count, want)
	}
}

func jobSkews(res *Result) []float64 {
	out := make([]float64, len(res.Jobs))
	for i, j := range res.Jobs {
		out[i] = j.ObservedSkew
	}
	return out
}

// TestAdaptiveCascadeReplansMidQuery forces the two-round cascade with
// adaptive execution on the planted-hub graph: round 1's observed skew (the
// hub's degree against the mean) breaches the threshold, round 2 is
// abandoned, and the query finishes as the one-round bucket-oriented job
// (Section 2.3's algorithm) at the b the plan probed for the bucket-oriented
// candidate — recorded as a Replanned job, with the triangle set intact.
func TestAdaptiveCascadeReplansMidQuery(t *testing.T) {
	g := hubGraph(400, 200)
	plan, err := Plan(g, Triangle(), WithStrategy(StrategyTwoRound), WithTargetReducers(256),
		WithSeed(5), WithAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("replanned cascade reported %d jobs, want round 1 + the replanned job: %+v", len(res.Jobs), jobLabels(res))
	}
	last := res.Jobs[len(res.Jobs)-1]
	if !last.Replanned || !strings.Contains(last.Label, "replanned") {
		t.Errorf("final job %+v not marked as the mid-query replan", last.Label)
	}
	// The forced cascade probes the bucket-oriented candidate: it is the
	// replan target, and the replanned job runs at its b.
	var target Candidate
	for _, c := range plan.Candidates {
		if c.Strategy == StrategyBucketOriented {
			target = c
		}
	}
	if !target.Probed || len(last.Shares) == 0 || last.Shares[0] != target.Buckets ||
		!strings.HasSuffix(last.Label, fmt.Sprintf("→ %v b=%d", StrategyBucketOriented, target.Buckets)) {
		t.Errorf("replanned job %q shares %v; want the probed bucket-oriented candidate's b=%d (probed %v)",
			last.Label, last.Shares, target.Buckets, target.Probed)
	}
	if res.Jobs[0].ObservedSkew <= plan.SkewThreshold {
		t.Errorf("round 1 skew %.2f did not breach threshold %.2f — fixture too uniform",
			res.Jobs[0].ObservedSkew, plan.SkewThreshold)
	}
	if want := CountTriangles(g); res.Count != want {
		t.Errorf("replanned cascade found %d triangles, oracle %d", res.Count, want)
	}

	// A uniform graph must NOT trigger the replan: the cascade runs its two
	// rounds as planned.
	ug := Gnm(200, 500, 9)
	uplan, err := Plan(ug, Triangle(), WithStrategy(StrategyTwoRound), WithAdaptive(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ures, err := Run(context.Background(), uplan)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range ures.Jobs {
		if j.Replanned {
			t.Errorf("uniform graph triggered a cascade replan (round-1 skew %.2f): %v", ures.Jobs[0].ObservedSkew, jobLabels(ures))
		}
	}
	if want := CountTriangles(ug); ures.Count != want {
		t.Errorf("uniform cascade found %d triangles, oracle %d", ures.Count, want)
	}
}

func jobLabels(res *Result) []string {
	out := make([]string, len(res.Jobs))
	for i, j := range res.Jobs {
		out[i] = j.Label
	}
	return out
}

// TestAdaptiveStreamAndInstances checks the adaptive paths deliver through
// the streaming surfaces too: Stream on a replanned cascade and Instances
// on an adaptive auto plan both yield the full oracle set.
func TestAdaptiveStreamAndInstances(t *testing.T) {
	g := hubGraph(300, 150)
	want := CountTriangles(g)

	plan, err := Plan(g, Triangle(), WithStrategy(StrategyTwoRound), WithAdaptive(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var streamed int64
	if _, err := Stream(context.Background(), plan, func([]Node) bool { streamed++; return true }); err != nil {
		t.Fatal(err)
	}
	if streamed != want {
		t.Errorf("streamed %d triangles through the replanned cascade, oracle %d", streamed, want)
	}

	auto, err := Plan(g, Triangle(), WithAdaptive(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var iterated int64
	for _, err := range Instances(context.Background(), auto) {
		if err != nil {
			t.Fatal(err)
		}
		iterated++
	}
	if iterated != want {
		t.Errorf("iterated %d triangles under the adaptive auto plan (%v b=%d), oracle %d",
			iterated, auto.Strategy, auto.Chosen.Buckets, want)
	}
}
