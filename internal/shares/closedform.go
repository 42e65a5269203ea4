package shares

import "math"

// Binomial returns C(n, k) as a float64 (exact for the modest arguments the
// paper's counting formulas use).
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return math.Round(r)
}

// EqualSharesRegular returns the Theorem 4.1 share vector for a regular
// sample graph with p nodes and k reducers: every share is k^{1/p}.
func EqualSharesRegular(p int, k float64) []float64 {
	s := math.Pow(k, 1/float64(p))
	out := make([]float64, p)
	for i := range out {
		out[i] = s
	}
	return out
}

// RegularCostPerEdge is the communication cost per edge for a d-regular
// p-node sample under equal shares (single-orientation relations):
// (pd/2) · k^{(p-2)/p}.
func RegularCostPerEdge(p, d int, k float64) float64 {
	return float64(p*d) / 2 * math.Pow(k, float64(p-2)/float64(p))
}

// UsefulReducers is Theorem 4.2: with hash-ordered nodes and b buckets per
// variable, only C(b+p-1, p) reducers can receive instances of a p-node
// sample.
func UsefulReducers(b, p int) float64 { return Binomial(b+p-1, p) }

// BucketsForReducers returns the largest bucket count b (at least 1,
// capped at MaxIntShare) whose useful-reducer count C(b+p-1, p) does not
// exceed the budget k — the Theorem 4.2 derivation shared by the planner
// and every bucket-style execution path.
func BucketsForReducers(k, p int) int {
	b := 1
	for b < MaxIntShare && UsefulReducers(b+1, p) <= float64(k) {
		b++
	}
	return b
}

// BucketEdgeReplication is the per-edge replication of the bucket-oriented
// method of Section 4.5: each edge reaches C(b+p-3, p-2) distinct reducers.
func BucketEdgeReplication(b, p int) float64 { return Binomial(b+p-3, p-2) }

// GeneralizedPartitionEdgeReplication is the expected per-edge replication
// of the generalized Partition algorithm of Section 4.5 with b node groups:
// a fraction (b-1)/b of edges (endpoints in different groups) reach
// C(b-2, p-2) reducers and a fraction 1/b reach C(b-1, p-1).
func GeneralizedPartitionEdgeReplication(b, p int) float64 {
	fb := float64(b)
	return (fb-1)/fb*Binomial(b-2, p-2) + 1/fb*Binomial(b-1, p-1)
}

// Example44Shares returns the optimal shares (a, b, z) for the scenario of
// Example 4.4 — a d-regular sample where every node of S1 has d/2 neighbors
// in S1 and d/2 in S2, every node of S3 has d/2 in S3 and d/2 in S2, and S2
// is independent with d/2 neighbors in each of S1, S3.
//
// Solving the Lagrange equalities (2d'/a² + 2(d-d')/az = d”/b² + (d-d”)/bz
// = 2d11/za + d12/zb with d' = d” = d11 = d12 = d/2) gives a = 2^{2/3}·b
// and z = 2^{1/3}·b with b = (k·2^{-(2s1+s2)/3})^{1/p}. (The constants
// printed in the paper's Example 4.4 — "ab = 2^{1/3}", "z = b·2^{2/3}" and
// the exponent (s1+2s2) — do not satisfy its own equalities; see
// EXPERIMENTS.md. For s1 = s2 the exponents coincide.)
func Example44Shares(k float64, s1, s2, s3 int) (a, b, z float64) {
	p := float64(s1 + s2 + s3)
	b = math.Pow(k*math.Pow(2, -float64(2*s1+s2)/3), 1/p)
	a = b * math.Pow(2, 2.0/3)
	z = b * math.Pow(2, 1.0/3)
	return a, b, z
}

// Eq3Cost is Example 4.5 / Eq. (3): when S2 is independent and covers every
// edge, the optimal replication per input tuple is
// (k·p·d/2) · 2^{2·s3/p} / k^{2/p}.
func Eq3Cost(k float64, p, d, s3 int) float64 {
	return k * float64(p*d) / 2 * math.Pow(2, 2*float64(s3)/float64(p)) / math.Pow(k, 2/float64(p))
}

// Eq3Shares returns the share assignment of Example 4.5: S1 and S2 nodes
// get a = k^{1/p}·2^{s3/p}, S3 nodes get a/2.
func Eq3Shares(k float64, p, s3 int) (a float64, s3Share float64) {
	a = math.Pow(k, 1/float64(p)) * math.Pow(2, float64(s3)/float64(p))
	return a, a / 2
}

// FiveCycleJoinBound is the tight worst-case output-size bound of
// Section 7.4 for the 5-cycle join R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D) ⋈ R4(D,E) ⋈
// R5(E,A) with |Ri| = n[i-1]:
//
//   - Case A (n_j·n_{j+1}·n_{j+3} ≥ the other two sizes for every cyclic
//     rotation j): the bound is √(n1·n2·n3·n4·n5).
//   - Case B (some rotation violates it): the bound is the minimum
//     violated product.
//
// Both cases collapse to min(√Π n_i, min_j n_j·n_{j+1}·n_{j+3}).
func FiveCycleJoinBound(n [5]float64) float64 {
	prod := 1.0
	for _, v := range n {
		prod *= v
	}
	best := math.Sqrt(prod)
	for j := 0; j < 5; j++ {
		// Attribute shared by R_j and R_{j+1}; opposite relation R_{j+3}.
		b := n[j] * n[(j+1)%5] * n[(j+3)%5]
		if b < best {
			best = b
		}
	}
	return best
}
