package subgraphmr_test

import (
	"context"
	"fmt"

	"subgraphmr"
)

// ExampleRun finds every triangle of the complete graph K5 in one
// map-reduce round with the bucket-oriented strategy.
func ExampleRun() {
	g := subgraphmr.CompleteGraph(5)
	plan, err := subgraphmr.Plan(g, subgraphmr.Triangle(),
		subgraphmr.WithStrategy(subgraphmr.StrategyBucketOriented),
		subgraphmr.WithBuckets(2),
		subgraphmr.WithSeed(1))
	if err != nil {
		panic(err)
	}
	res, err := subgraphmr.Run(context.Background(), plan)
	if err != nil {
		panic(err)
	}
	fmt.Printf("triangles in K5: %d\n", res.Count)
	fmt.Printf("jobs: %d, conjunctive queries: %d\n", len(res.Jobs), res.NumCQs)
	fmt.Printf("communication: %d key-value pairs (%.1f per edge)\n",
		res.TotalComm(), float64(res.TotalComm())/float64(g.NumEdges()))
	// Output:
	// triangles in K5: 10
	// jobs: 1, conjunctive queries: 1
	// communication: 20 key-value pairs (2.0 per edge)
}
