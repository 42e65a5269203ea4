package difftest

import (
	"fmt"
	"testing"

	"subgraphmr"
	"subgraphmr/internal/sample"
)

// adaptiveStrategies is the matrix the adaptive parity harness pins: every
// strategy with an adaptive behavior (probe re-ranking, bucket ladders,
// mid-query re-planning) plus auto itself.
var adaptiveStrategies = []subgraphmr.PlanStrategy{
	subgraphmr.StrategyAuto,
	subgraphmr.StrategyBucketOriented,
	subgraphmr.StrategyVariableOriented,
	subgraphmr.StrategyCQOriented,
	subgraphmr.StrategyDecomposed,
}

// TestAdaptiveParityOnSkewedGraphs: on a seeded power-law graph and the
// planted-hub fixture, the adaptive path (probing + mid-query re-planning)
// must yield the bit-identical instance set and count as the static plan —
// fully in memory and under a tiny budget, which these strategies' block
// jobs ignore: neither run spills.
func TestAdaptiveParityOnSkewedGraphs(t *testing.T) {
	graphs := map[string]*subgraphmr.Graph{
		"powerlaw": Graphs(7)["powerlaw"],
		"hub":      HubGraph(60, 30),
	}
	samples := []*sample.Sample{sample.Triangle(), sample.Square(), sample.Lollipop()}
	for gname, g := range graphs {
		for _, s := range samples {
			for _, st := range adaptiveStrategies {
				for _, mode := range modes {
					t.Run(fmt.Sprintf("%s/%v/%v/%s", gname, s, st, mode.name), func(t *testing.T) {
						_, am, err := CheckAdaptiveParity(t.Context(), g, s, st,
							subgraphmr.WithTargetReducers(64),
							subgraphmr.WithParallelism(2),
							subgraphmr.WithPartitions(2),
							subgraphmr.WithMemoryBudget(mode.budget),
							subgraphmr.WithSpillDir(t.TempDir()))
						if err != nil {
							t.Fatal(err)
						}
						wantSpill(t, false, mode.budget, am)
					})
				}
			}
		}
	}
}

// TestAdaptiveParityMidQueryReplan forces the two mid-query re-planning
// paths — the cq-oriented budget raise (threshold 1.01 breaches on any real
// skew) and the cascade's switch to the one-round algorithm — and asserts
// bit-identical results in memory and under a tiny budget (which only the
// cascade's plain jobs spill under).
func TestAdaptiveParityMidQueryReplan(t *testing.T) {
	g := HubGraph(80, 40)
	for _, mode := range modes {
		t.Run("cq/"+mode.name, func(t *testing.T) {
			_, am, err := CheckAdaptiveParity(t.Context(), g, sample.Square(), subgraphmr.StrategyCQOriented,
				subgraphmr.WithTargetReducers(64),
				subgraphmr.WithSkewThreshold(1.01),
				subgraphmr.WithParallelism(2),
				subgraphmr.WithPartitions(2),
				subgraphmr.WithMemoryBudget(mode.budget),
				subgraphmr.WithSpillDir(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			wantSpill(t, false, mode.budget, am)
		})
		t.Run("cascade/"+mode.name, func(t *testing.T) {
			_, _, err := CheckAdaptiveParity(t.Context(), g, sample.Triangle(), subgraphmr.StrategyTwoRound,
				subgraphmr.WithTargetReducers(64),
				subgraphmr.WithParallelism(2),
				subgraphmr.WithPartitions(2),
				subgraphmr.WithMemoryBudget(mode.budget),
				subgraphmr.WithSpillDir(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
