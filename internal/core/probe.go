package core

import (
	"subgraphmr/internal/cq"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
)

// This file exposes map-only load probes over the exact jobs the
// enumerations execute, so the adaptive planner can observe per-reducer
// loads — total pairs, distinct keys, the hottest reducer — before
// committing to a strategy. A probe is the job's own task list without the
// job (mapreduce.BlockJob.Loads): one counting pass over the edges and a
// walk over the reducer keys, deterministic given the seed.

// ProbeBucketLoads measures the reducer loads of the Section 4.5 bucket
// scheme for a p-node sample at bucket count b, under the same seeded hash
// a bucket-oriented (or decomposed) job at that seed would use. A (p, b) the
// reducer key cannot express is an error, never a silent zero-load result
// (which would rank as a free plan).
func ProbeBucketLoads(g *graph.Graph, p, b int, seed uint64, cfg mapreduce.Config) (mapreduce.LoadStats, error) {
	scheme, err := newBucketScheme(seed, p, b)
	if err != nil {
		return mapreduce.LoadStats{}, err
	}
	return scheme.job("").Loads(cfg, g.Edges())
}

// ProbeVariableLoads measures the reducer loads of the Section 4.3
// variable-oriented job over the merged CQ set qs at the given integer
// shares.
func ProbeVariableLoads(g *graph.Graph, qs []*cq.CQ, intShares []int, seed uint64, cfg mapreduce.Config) (mapreduce.LoadStats, error) {
	return probeShareLoads(g, bindingsFromUses(cq.EdgeUses(qs)), intShares, seed, cfg)
}

// ProbeCQLoads measures the reducer loads of one Section 4.1 cq-oriented
// job (a single CQ at its own integer shares).
func ProbeCQLoads(g *graph.Graph, q *cq.CQ, intShares []int, seed uint64, cfg mapreduce.Config) (mapreduce.LoadStats, error) {
	return probeShareLoads(g, bindingsFromCQ(q), intShares, seed, cfg)
}

func probeShareLoads(g *graph.Graph, binds []edgeBinding, intShares []int, seed uint64, cfg mapreduce.Config) (mapreduce.LoadStats, error) {
	scheme, err := newShareScheme(seed, binds, intShares)
	if err != nil {
		return mapreduce.LoadStats{}, err
	}
	return scheme.job("").Loads(cfg, g.Edges())
}
