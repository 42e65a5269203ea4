package shares_test

import (
	"fmt"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/shares"
)

// ExampleModel_Solve solves the Section 4 share-optimization problem for
// the triangle sample with a budget of 64 reducers: by symmetry every
// variable gets the same share k^(1/3) = 4.
func ExampleModel_Solve() {
	qs := cq.MergeByOrientation(cq.GenerateForSample(sample.Triangle()))
	sol, err := shares.VariableOrientedModel(3, qs).Solve(64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("shares: %.0f %.0f %.0f\n", sol.Shares[0], sol.Shares[1], sol.Shares[2])
	fmt.Printf("optimal communication per edge: %.0f\n", sol.CostPerEdge)
	// Output:
	// shares: 4 4 4
	// optimal communication per edge: 12
}
