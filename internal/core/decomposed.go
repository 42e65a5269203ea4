package core

import (
	"context"
	"fmt"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
)

// EnumerateDecomposed runs the Theorem 6.1 conversion of the serial
// decomposition algorithm (Theorem 7.2) as one map-reduce round: edges are
// shipped with the Section 4.5 bucket mapper, every reducer runs the serial
// decomposition algorithm on its local edge fragment, and an instance is
// kept only by the reducer owning its bucket multiset — so each instance
// surfaces exactly once and total reducer work stays Θ(serial work) spread
// over C(b+p-1, p) reducers. The decomposition is the sample's optimal
// one (sample.Decompose).
//
// The sample must be connected: every node of an instance is then incident
// to an instance edge, all of which reach the owning reducer. See Enumerate
// for the sink (nil counts) and cancellation contract.
func EnumerateDecomposed(ctx context.Context, g *graph.Graph, s *sample.Sample, opt Options, sink func([]graph.Node) bool) (*Result, error) {
	if !s.IsConnected() {
		return nil, fmt.Errorf("core: map-reduce enumeration requires a connected sample graph")
	}
	return runBucketJob(ctx, g, s.P(), opt, "decomposed (Theorem 6.1)", "decomposed (Theorem 6.1 conversion)", sink,
		func(scheme bucketScheme, ms *matchSink, job enumJob) enumJob {
			h := scheme.h
			job.Reduce = func(ctx *mapreduce.Context, key graph.BucketKey, edges []graph.Edge, emit func([]graph.Node)) {
				maxID := graph.Node(0)
				for _, e := range edges {
					maxID = max(maxID, e.U, e.V)
				}
				local := graph.FromEdges(int(maxID)+1, edges)
				found, work := serial.EnumerateByDecomposition(local, s)
				ctx.AddWork(work)
				buckets := make([]int, s.P())
				for _, phi := range found {
					for i, u := range phi {
						buckets[i] = h.Bucket(u)
					}
					if graph.MultisetKey(buckets...) != key {
						continue
					}
					if ms.counting() {
						ms.count()
					} else {
						emit(phi)
					}
				}
			}
			return job
		})
}
