package subgraphmr_test

import (
	"context"
	"fmt"
	"strings"

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

// ExampleOptimizeShares solves the Section 4 share-optimization problem
// for the triangle sample with a budget of 64 reducers: by symmetry every
// variable gets the same share k^(1/3) = 4.
func ExampleOptimizeShares() {
	model := subgraphmr.VariableOrientedModel(3, subgraphmr.MergedCQsFor(subgraphmr.Triangle()))
	sol, err := subgraphmr.OptimizeShares(model, 64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("shares: %.0f %.0f %.0f\n", sol.Shares[0], sol.Shares[1], sol.Shares[2])
	fmt.Printf("optimal communication per edge: %.0f\n", sol.CostPerEdge)
	// Output:
	// shares: 4 4 4
	// optimal communication per edge: 12
}

// ExampleRunRound chains two map-reduce rounds on the pipelined engine: a
// word count with a pre-shuffle counting combiner, then a round keyed by
// count collecting words of equal frequency. The Chain accumulates
// per-round metrics.
func ExampleRunRound() {
	type wordCount struct {
		Word  string
		Count int64
	}
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}
	chain := subgraphmr.NewChain(subgraphmr.EngineConfig{Parallelism: 2})
	ctx := context.Background()

	counts, err := subgraphmr.RunRound(ctx, chain, subgraphmr.MapReduceJob[string, string, int64, wordCount]{
		Name: "word count",
		Map: func(line string, emit func(string, int64)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine: func(_ string, partial []int64) []int64 {
			var sum int64
			for _, c := range partial {
				sum += c
			}
			return []int64{sum}
		},
		Reduce: func(_ *subgraphmr.ReduceContext, word string, partial []int64, emit func(wordCount)) {
			var sum int64
			for _, c := range partial {
				sum += c
			}
			emit(wordCount{word, sum})
		},
	}, lines)
	if err != nil {
		panic(err)
	}

	byFreq, err := subgraphmr.RunRound(ctx, chain, subgraphmr.MapReduceJob[wordCount, int64, string, string]{
		Name: "group by frequency",
		Map: func(wc wordCount, emit func(int64, string)) {
			emit(wc.Count, wc.Word)
		},
		Reduce: func(_ *subgraphmr.ReduceContext, count int64, words []string, emit func(string)) {
			emit(fmt.Sprintf("%d× %d word(s)", count, len(words)))
		},
	}, counts)
	if err != nil {
		panic(err)
	}

	fmt.Printf("distinct words: %d\n", len(counts))
	fmt.Printf("frequency groups: %d\n", len(byFreq))
	fmt.Printf("rounds: %d, total shuffled pairs: %d\n",
		chain.NumRounds(), chain.Total().KeyValuePairs)
	// Output:
	// distinct words: 6
	// frequency groups: 3
	// rounds: 2, total shuffled pairs: 15
}
