package shares

import "subgraphmr/internal/graph"

// MaxIntShare is the engine's per-variable share ceiling: a share is a
// bucket count, and bucket numbers must fit one lane of a reducer key. The
// planner marks candidates whose integer shares exceed it non-viable, so
// Plan and Run agree on what can execute.
const MaxIntShare = graph.MaxBuckets

// MaxShare returns the largest entry of an integer share vector (0 for an
// empty vector).
func MaxShare(intShares []int) int {
	max := 0
	for _, s := range intShares {
		if s > max {
			max = s
		}
	}
	return max
}

// SkewAdjustedReducers raises a reducer budget k in response to observed
// load skew (MaxLoad / MeanLoad): the budget is scaled by skew/threshold so
// hot reducers are split into proportionally more, smaller groups. The
// multiplier is clamped to [1, 8] per adjustment — re-planning reacts in
// bounded steps rather than chasing one extreme observation — and the
// result never exceeds maxK (pass 0 for no cap). Below the threshold k is
// returned unchanged.
func SkewAdjustedReducers(k int, skew, threshold float64, maxK int) int {
	if k < 1 {
		k = 1
	}
	if threshold <= 0 || skew <= threshold {
		return k
	}
	factor := skew / threshold
	if factor > 8 {
		factor = 8
	}
	adjusted := int(float64(k) * factor)
	if adjusted < k {
		adjusted = k
	}
	if maxK > 0 && adjusted > maxK {
		adjusted = maxK
	}
	return adjusted
}
