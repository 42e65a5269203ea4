package shares

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Solution is the result of optimizing a cost model for k reducers.
type Solution struct {
	// Shares holds the optimal (possibly fractional) share per variable;
	// dominated variables get share 1.
	Shares []float64
	// CostPerEdge is the optimal communication cost per data edge,
	// Σ_t coef_t · Π_{v ∉ t} share_v.
	CostPerEdge float64
	// Dominated flags variables whose share was fixed to 1 by domination.
	Dominated []bool
	// Iterations is the number of gradient steps performed.
	Iterations int
}

// Solve minimizes the communication cost subject to Π shares = k and
// shares ≥ 1 (dominated variables pinned at 1). In log space the objective
// is convex and the feasible set is a shifted simplex, so projected
// gradient descent with backtracking converges to the global optimum.
func (m Model) Solve(k float64) (Solution, error) {
	if err := m.Validate(); err != nil {
		return Solution{}, err
	}
	if k < 1 {
		return Solution{}, fmt.Errorf("shares: k must be >= 1, got %v", k)
	}
	dominated := m.Dominated()
	var free []int
	for v := 0; v < m.NumVars; v++ {
		if !dominated[v] {
			free = append(free, v)
		}
	}
	shares := make([]float64, m.NumVars)
	for v := range shares {
		shares[v] = 1
	}
	sol := Solution{Shares: shares, Dominated: dominated}
	if len(free) == 0 {
		sol.CostPerEdge = m.CostPerEdge(shares)
		return sol, nil
	}

	// Terms over free variables: exponent index sets and coefficients.
	type term struct {
		coef float64
		vars []int // indices into free
	}
	freeIdx := make(map[int]int, len(free))
	for i, v := range free {
		freeIdx[v] = i
	}
	var terms []term
	for _, sg := range m.Subgoals {
		in := make(map[int]bool, len(sg.Vars))
		for _, v := range sg.Vars {
			in[v] = true
		}
		t := term{coef: sg.Coef}
		for _, v := range free {
			if !in[v] {
				t.vars = append(t.vars, freeIdx[v])
			}
		}
		terms = append(terms, t)
	}

	n := len(free)
	c := math.Log(k)
	x := make([]float64, n)
	for i := range x {
		x[i] = c / float64(n)
	}
	// eval returns the objective at x and writes its gradient into g.
	eval := func(x, g []float64) float64 {
		clear(g)
		f := 0.0
		for _, t := range terms {
			e := 0.0
			for _, i := range t.vars {
				e += x[i]
			}
			val := t.coef * math.Exp(e)
			f += val
			for _, i := range t.vars {
				g[i] += val
			}
		}
		return f
	}

	// One buffer each for the gradient at x, the gradient at the trial
	// point, the trial point and the projection's sort: a step allocates
	// nothing, however many the descent takes.
	g, gt, trial, scratch := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	f := eval(x, g)
	eta := 1.0 / (1.0 + maxAbs(g))
	iters := 0
	stall := 0
	for iters = 0; iters < 60000 && stall < 60; iters++ {
		improved := false
		for try := 0; try < 60; try++ {
			for i := range trial {
				trial[i] = x[i] - eta*g[i]
			}
			projectSimplex(trial, c, scratch)
			ft := eval(trial, gt)
			if ft < f-1e-15*math.Abs(f)-1e-300 {
				copy(x, trial)
				f, g, gt = ft, gt, g
				eta *= 2
				improved = true
				break
			}
			eta /= 2
			if eta < 1e-18 {
				break
			}
		}
		if !improved {
			stall++
			eta = 1.0 / (1.0 + maxAbs(g)) // reset step and retry a few times
		} else {
			stall = 0
		}
	}
	for i, v := range free {
		shares[v] = math.Exp(x[i])
	}
	sol.CostPerEdge = m.CostPerEdge(shares)
	sol.Iterations = iters
	return sol, nil
}

// projectSimplex projects y (in place) onto {x : x ≥ 0, Σ x = c} in
// Euclidean norm (the standard sort-based simplex projection). scratch
// holds the sorted copy; it needs len(y) capacity.
func projectSimplex(y []float64, c float64, scratch []float64) {
	n := len(y)
	sorted := append(scratch[:0], y...)
	slices.SortFunc(sorted, func(a, b float64) int { return cmp.Compare(b, a) }) // descending
	sum := 0.0
	tau := 0.0
	count := 0
	for i := 0; i < n; i++ {
		sum += sorted[i]
		t := (sum - c) / float64(i+1)
		if sorted[i]-t > 0 {
			tau = t
			count = i + 1
		}
	}
	if count == 0 {
		// All mass on the largest coordinate (degenerate; c ≥ 0 expected).
		tau = (sum - c) / float64(n)
	}
	for i := range y {
		y[i] -= tau
		if y[i] < 0 {
			y[i] = 0
		}
	}
	// Numerical cleanup: renormalize the residual.
	total := 0.0
	for _, v := range y {
		total += v
	}
	if diff := c - total; math.Abs(diff) > 1e-12 {
		// Spread the residual over the positive coordinates.
		pos := 0
		for _, v := range y {
			if v > 0 {
				pos++
			}
		}
		if pos > 0 {
			for i := range y {
				if y[i] > 0 {
					y[i] += diff / float64(pos)
					if y[i] < 0 {
						y[i] = 0
					}
				}
			}
		}
	}
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
