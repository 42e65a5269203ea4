// Quickstart: build a small data graph, plan and run a triangle query,
// inspect the cost statistics, and stream squares through the iterator.
package main

import (
	"context"
	"fmt"
	"log"

	"subgraphmr"
)

func main() {
	ctx := context.Background()

	// A small social graph: two triangles sharing an edge, plus a 4-cycle.
	//
	//     0 --- 1        5 --- 6
	//     | \ / |        |     |
	//     |  X  |        8 --- 7
	//     | / \ |
	//     3 --- 2
	b := subgraphmr.NewGraphBuilder(9)
	for _, e := range [][2]subgraphmr.Node{
		{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}, {1, 3}, // K4 on 0..3
		{5, 6}, {6, 7}, {7, 8}, {5, 8}, // C4 on 5..8
		{4, 0}, {4, 5}, // a bridge node
	} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Graph()
	fmt.Printf("data graph: %d nodes, %d edges\n\n", g.NumNodes(), g.NumEdges())

	// Plan a triangle query. StrategyAuto costs every viable strategy
	// (bucket/variable/CQ-oriented, the Section 2 triangle algorithms, the
	// two-round cascade) and picks the cheapest; WithBuckets pins b=3 so
	// the numbers below are easy to check by hand.
	plan, err := subgraphmr.Plan(g, subgraphmr.Triangle(), subgraphmr.WithBuckets(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Explain())

	// Run the plan: one unified Result for every strategy.
	res, err := subgraphmr.Run(ctx, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntriangles (%d):\n", res.Count)
	for _, phi := range res.Instances {
		fmt.Printf("  {%d, %d, %d}\n", phi[0], phi[1], phi[2])
	}
	job := res.Jobs[0]
	fmt.Printf("cost: %d key-value pairs shipped (%.1f per edge), %d reducers, max load %d\n\n",
		job.Metrics.KeyValuePairs,
		float64(job.Metrics.KeyValuePairs)/float64(g.NumEdges()),
		job.Metrics.DistinctKeys, job.Metrics.MaxReducerInput)

	// Stream squares (4-cycles) through the iterator: instances arrive one
	// at a time with backpressure — no [][]Node ever materializes, and
	// breaking the loop (or cancelling ctx) tears the engine down.
	sqPlan, err := subgraphmr.Plan(g, subgraphmr.Square(), subgraphmr.WithBuckets(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("squares, streamed:")
	squares := 0
	for phi, err := range subgraphmr.Instances(ctx, sqPlan) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  W=%d X=%d Y=%d Z=%d\n", phi[0], phi[1], phi[2], phi[3])
		squares++
	}

	// The same answers come from the serial algorithms of Section 7.
	serialSquares, _ := subgraphmr.EnumerateByDecomposition(g, subgraphmr.Square())
	fmt.Printf("\nserial cross-check: %d triangles, %d squares (streamed %d)\n",
		subgraphmr.CountTriangles(g), len(serialSquares), squares)
}
