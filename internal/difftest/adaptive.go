package difftest

import (
	"context"
	"fmt"
	"sort"

	"subgraphmr"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
)

// HubGraph returns the seeded planted-hub skew fixture (graph.PlantedHub):
// a mid-id hub adjacent to every other node over a sparse ring background —
// the degree distribution the static share models price worst.
// Deterministic, so failures reproduce standalone.
func HubGraph(n, ringNodes int) *graph.Graph {
	return graph.PlantedHub(n, ringNodes)
}

// CheckAdaptiveParity plans and runs a strategy twice through the public
// Plan/Run API — once static, once under WithAdaptive (probe-informed
// planning plus mid-query re-planning) — and verifies the two runs produce
// the bit-identical instance set, that the set matches the serial oracle,
// and that the counts agree. The extra options (memory budget, skew
// threshold, …) apply to both runs. It returns each run's summed engine
// metrics so callers can additionally assert how the jobs executed (e.g.
// that a tiny budget really spilled, or that the adaptive run replanned).
func CheckAdaptiveParity(ctx context.Context, g *graph.Graph, s *sample.Sample, st subgraphmr.PlanStrategy, extra ...subgraphmr.Option) (staticM, adaptiveM mapreduce.Metrics, err error) {
	label := fmt.Sprintf("adaptive-parity/%v/%v", st, s)
	run := func(adaptive bool) ([]string, mapreduce.Metrics, *subgraphmr.Result, error) {
		opts := append([]subgraphmr.Option{subgraphmr.WithStrategy(st), subgraphmr.WithSeed(11)}, extra...)
		if adaptive {
			opts = append(opts, subgraphmr.WithAdaptive())
		}
		plan, err := subgraphmr.Plan(g, s, opts...)
		if err != nil {
			return nil, mapreduce.Metrics{}, nil, err
		}
		res, err := subgraphmr.Run(ctx, plan)
		if err != nil {
			return nil, mapreduce.Metrics{}, nil, err
		}
		keys := make([]string, 0, len(res.Instances))
		for _, phi := range res.Instances {
			keys = append(keys, s.Key(phi))
		}
		sort.Strings(keys)
		var m mapreduce.Metrics
		for _, j := range res.Jobs {
			m.Add(j.Metrics)
		}
		return keys, m, res, nil
	}

	staticKeys, staticM, staticRes, err := run(false)
	if err != nil {
		return staticM, adaptiveM, fmt.Errorf("%s: static run: %w", label, err)
	}
	adaptiveKeys, adaptiveM, adaptiveRes, err := run(true)
	if err != nil {
		return staticM, adaptiveM, fmt.Errorf("%s: adaptive run: %w", label, err)
	}

	if len(staticKeys) != len(adaptiveKeys) {
		return staticM, adaptiveM, fmt.Errorf("%s: static found %d instances, adaptive %d",
			label, len(staticKeys), len(adaptiveKeys))
	}
	for i := range staticKeys {
		if staticKeys[i] != adaptiveKeys[i] {
			return staticM, adaptiveM, fmt.Errorf("%s: instance sets diverge at %d: static %q, adaptive %q",
				label, i, staticKeys[i], adaptiveKeys[i])
		}
	}
	if staticRes.Count != adaptiveRes.Count {
		return staticM, adaptiveM, fmt.Errorf("%s: static count %d, adaptive count %d",
			label, staticRes.Count, adaptiveRes.Count)
	}
	if err := compareInstances(label, sampleOracle(g, s), adaptiveKeys); err != nil {
		return staticM, adaptiveM, err
	}
	return staticM, adaptiveM, nil
}
