// Command paperfigs regenerates every quantitative table, figure and
// worked example of the paper from live runs of this library, printing
// paper-reported values next to measured ones. EXPERIMENTS.md is the
// curated output of `paperfigs -fig all`.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"subgraphmr"
	"subgraphmr/internal/approx"
	"subgraphmr/internal/cq"
	"subgraphmr/internal/cycles"
	"subgraphmr/internal/directed"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/multijoin"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
	"subgraphmr/internal/shares"
	"subgraphmr/internal/triangle"
	"subgraphmr/internal/tworound"
)

var sections = map[string]func(){
	"intro":    intro,
	"fig1":     fig1,
	"fig2":     fig2,
	"ex3.2":    ex32,
	"fig5-7":   fig567,
	"ex4.1":    ex41,
	"ex4.2":    ex42,
	"ex4.3":    ex43,
	"ex4.4":    ex44,
	"ex4.5":    ex45,
	"thm4.1":   thm41,
	"thm4.2":   thm42,
	"sec4.5":   sec45,
	"sec5":     sec5,
	"thm6.1":   thm61,
	"lem7.1":   lem71,
	"thm7.1":   thm71,
	"thm7.3":   thm73,
	"sec7.4":   sec74,
	"sec8":     sec8,
	"baseline": baseline,
}

var order = []string{
	"intro", "fig1", "fig2", "ex3.2", "fig5-7", "ex4.1", "ex4.2", "ex4.3",
	"ex4.4", "ex4.5", "thm4.1", "thm4.2", "sec4.5", "sec5", "thm6.1",
	"lem7.1", "thm7.1", "thm7.3", "sec7.4", "sec8", "baseline",
}

func main() {
	fig := flag.String("fig", "all", "section to regenerate (all, "+fmt.Sprint(order)+")")
	flag.Parse()
	if *fig == "all" {
		for _, name := range order {
			sections[name]()
			fmt.Println()
		}
		return
	}
	fn, ok := sections[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "paperfigs: unknown section %q\n", *fig)
		os.Exit(1)
	}
	fn()
}

func header(s string) { fmt.Printf("==== %s ====\n", s) }

// run plans one query through the public API and runs it to a materialized
// result.
func run(g *subgraphmr.Graph, s *subgraphmr.Sample, opts ...subgraphmr.Option) (*subgraphmr.QueryPlan, *subgraphmr.Result) {
	plan, err := subgraphmr.Plan(g, s, opts...)
	if err != nil {
		panic(err)
	}
	res, err := subgraphmr.Run(context.Background(), plan)
	if err != nil {
		panic(err)
	}
	return plan, res
}

// runTriangle runs one Section 2 triangle strategy at b buckets, hash seed 7.
func runTriangle(g *subgraphmr.Graph, st subgraphmr.PlanStrategy, b int) subgraphmr.Metrics {
	_, res := run(g, subgraphmr.Triangle(), subgraphmr.WithStrategy(st), subgraphmr.WithBuckets(b), subgraphmr.WithSeed(7))
	return res.Jobs[0].Metrics
}

func intro() {
	header("Section 1 — one-round multiway join vs cascade of two-way joins")
	// Random graph plus a mid-id hub so the ordered wedge relation is large.
	base := graph.Gnm(1500, 4000, 3)
	b := graph.NewBuilder(1500)
	for _, e := range base.Edges() {
		b.AddEdge(e.U, e.V)
	}
	for v := graph.Node(0); v < 1500; v++ {
		if v != 750 {
			b.AddEdge(750, v)
		}
	}
	g := b.Graph()
	_, cascade := run(g, subgraphmr.Triangle(), subgraphmr.WithStrategy(subgraphmr.StrategyTwoRound))
	oneRound := runTriangle(g, subgraphmr.StrategyTriangleBucketOrdered, 10)
	fmt.Printf("hub graph n=%d m=%d: both find %d triangles\n",
		g.NumNodes(), g.NumEdges(), cascade.Count)
	fmt.Printf("  cascade (2 rounds): comm=%d (%.1f/edge), wedges materialized=%d\n",
		cascade.TotalComm(), float64(cascade.TotalComm())/float64(g.NumEdges()), tworound.WedgeCount(g))
	fmt.Printf("  one round (§2.3, b=10): comm=%d (%.1f/edge)\n",
		oneRound.KeyValuePairs,
		float64(oneRound.KeyValuePairs)/float64(g.NumEdges()))
}

func sec8() {
	header("Section 8 — directed/labeled extension (conclusions bullet 1)")
	g := directed.RandomDiGraph(500, 3000, 3, 7)
	for _, tc := range []struct {
		name string
		pt   *directed.DiPattern
	}{
		{"directed 3-cycle", directed.DirectedCycle(3, 0)},
		{"directed 4-cycle", directed.DirectedCycle(4, 0)},
		{"labeled 2-path knows→buys", directed.MustPattern(3, []directed.PatternArc{
			{From: 0, To: 1, Label: directed.LabelKnows},
			{From: 1, To: 2, Label: directed.LabelBuysFrom}})},
	} {
		res, err := subgraphmr.EnumerateDirectedContext(context.Background(), g, tc.pt, nil, subgraphmr.WithBuckets(5), subgraphmr.WithSeed(2))
		if err != nil {
			panic(err)
		}
		oracle := len(directed.BruteForce(g, tc.pt))
		fmt.Printf("%-28s |Aut|=%d instances=%d (oracle %d) comm/arc=%.0f reducers=%d\n",
			tc.name, len(tc.pt.Automorphisms()), len(res.Instances), oracle,
			float64(res.TotalComm())/float64(g.NumArcs()), res.Jobs[0].Metrics.DistinctKeys)
	}
}

func baseline() {
	header("Related work — probabilistic counting baselines vs exact enumeration")
	g := subgraphmr.Gnm(800, 9000, 5)
	exact := subgraphmr.CountTriangles(g)
	fmt.Printf("exact triangles: %d\n", exact)
	for _, q := range []float64{0.5, 0.2, 0.1} {
		est := approx.DoulionTriangles(g, q, 5, 3)
		fmt.Printf("doulion q=%.1f (5 trials): estimate %.0f (rel err %.1f%%)\n",
			q, est, 100*math.Abs(est-float64(exact))/float64(exact))
	}
	small := subgraphmr.Gnm(40, 100, 2)
	exactPaths := len(subgraphmr.BruteForce(small, subgraphmr.PathSample(4)))
	ccEst := approx.ColorCodingPaths(small, 4, 500, 9)
	fmt.Printf("color coding 4-paths (500 colorings): estimate %.1f (exact %d)\n", ccEst, exactPaths)
}

func fig1() {
	header("Fig. 1 — asymptotic communication of three triangle algorithms at k reducers")
	fmt.Println("algorithm      buckets b     comm cost (per edge × m)")
	fmt.Println("Partition      (6k)^(1/3)    3·(6k)^(1/3)/2")
	fmt.Println("Section 2.2    k^(1/3)       3·k^(1/3)")
	fmt.Println("Section 2.3    (6k)^(1/3)    (6k)^(1/3)")
	for _, k := range []float64{220, 1 << 16, 1 << 20} {
		p, mw, bo := triangle.Fig1CommPerEdge(k)
		fmt.Printf("k=%-8.0f predicted comm/edge: partition=%.2f multiway=%.2f bucketordered=%.2f "+
			"(ratios vs bucketordered: %.3f, %.3f)\n", k, p, mw, bo, p/bo, mw/bo)
	}
	g := subgraphmr.Gnm(2000, 12000, 42)
	k := 220
	fmt.Printf("measured on G(n=%d, m=%d), budget k=%d:\n", g.NumNodes(), g.NumEdges(), k)
	for _, r := range triangleRows {
		// The planner derives each algorithm's bucket count from the budget.
		plan, res := run(g, subgraphmr.Triangle(), subgraphmr.WithStrategy(r.st), subgraphmr.WithTargetReducers(k), subgraphmr.WithSeed(7))
		m := res.Jobs[0].Metrics
		b := plan.Chosen.Buckets
		fmt.Printf("  %-12s b=%-3d comm/edge=%.2f (closed form %.2f) reducers=%d triangles=%d\n",
			r.name, b, float64(m.KeyValuePairs)/float64(g.NumEdges()), r.comm(b),
			m.DistinctKeys, res.Count)
	}
}

// triangleRows are Figs. 1 and 2's three algorithms with their exact
// per-edge communication at b buckets. Section 2.3's is the bucket-oriented
// strategy at p = 3, priced by Theorem 4.2's C(b+p-3, p-2) = b.
var triangleRows = []struct {
	name string
	st   subgraphmr.PlanStrategy
	comm func(b int) float64
	b    int // Fig. 2's bucket count
}{
	{"Partition", subgraphmr.StrategyTrianglePartition, triangle.Partition.CommPerEdge, 12},
	{"Section 2.2", subgraphmr.StrategyTriangleMultiway, triangle.Multiway.CommPerEdge, 6},
	{"Section 2.3", subgraphmr.StrategyTriangleBucketOrdered, func(b int) float64 { return shares.BucketEdgeReplication(b, 3) }, 10},
}

func fig2() {
	header("Fig. 2 — concrete comparison (paper: 13.75m / 16m / 10m at ~2^20, 2^16, 2^20 reducers)")
	g := subgraphmr.Gnm(2000, 12000, 42)
	fmt.Printf("%-14s %-8s %-10s %-18s %-18s\n", "algorithm", "buckets", "reducers", "paper comm/edge", "measured comm/edge")
	for _, r := range triangleRows {
		m := runTriangle(g, r.st, r.b)
		fmt.Printf("%-14s %-8d %-10d %-18.2f %-18.2f\n", r.name, r.b, m.DistinctKeys,
			r.comm(r.b), float64(m.KeyValuePairs)/float64(g.NumEdges()))
	}
	fmt.Println("(formula reducer counts: C(12,3)=220, 6^3=216, C(12,3)=220; paper's 2^20/2^16 scale the same shapes)")
}

func ex32() {
	header("Example 3.2 — three CQs for the square")
	for i, q := range cq.GenerateForSample(sample.Square()) {
		fmt.Printf("%d. %s\n", i+1, q)
	}
}

func fig567() {
	header("Figs. 5-7 — lollipop CQ pipeline")
	all := cq.GenerateForSample(sample.Lollipop())
	fmt.Printf("Fig. 5: %d CQs (coset representatives, all with Y before Z):\n", len(all))
	for i, q := range all {
		fmt.Printf("%3d. %s\n", i+1, q)
	}
	fmt.Printf("Fig. 6: orientation groups: %v\n", cq.OrientationGroups(all))
	merged := cq.MergeByOrientation(all)
	fmt.Printf("Fig. 7: %d merged CQs:\n", len(merged))
	for i, q := range merged {
		fmt.Printf("%3d. %s\n", i+1, q)
	}
}

func ex41() {
	header("Example 4.1 — shares for lollipop CQ1, k=750 (paper: w=1, x=30, y=z=5, 65 copies/edge)")
	model := shares.Model{NumVars: 4, Subgoals: []shares.Subgoal{
		{Vars: []int{0, 1}, Coef: 1}, {Vars: []int{1, 2}, Coef: 1},
		{Vars: []int{1, 3}, Coef: 1}, {Vars: []int{2, 3}, Coef: 1},
	}}
	sol, err := model.Solve(750)
	if err != nil {
		panic(err)
	}
	fmt.Printf("solved shares (W,X,Y,Z) = (%.3f, %.3f, %.3f, %.3f), dominated=%v\n",
		sol.Shares[0], sol.Shares[1], sol.Shares[2], sol.Shares[3], sol.Dominated)
	fmt.Printf("cost per edge = %.4f (paper: 65)\n", sol.CostPerEdge)
	fmt.Printf("replications per subgoal = %v (paper: 25, 5, 5, 30)\n", model.Replications(sol.Shares))
}

func ex42() {
	header("Example 4.2 — square variable-oriented: optimal cost 4·sqrt(2k) per edge")
	model := shares.Model{NumVars: 4, Subgoals: []shares.Subgoal{
		{Vars: []int{0, 1}, Coef: 1}, {Vars: []int{0, 3}, Coef: 1},
		{Vars: []int{1, 2}, Coef: 2}, {Vars: []int{2, 3}, Coef: 2},
	}}
	for _, k := range []float64{128, 4096, 1 << 20} {
		sol, err := model.Solve(k)
		if err != nil {
			panic(err)
		}
		fmt.Printf("k=%-9.0f solver cost/edge=%.4f paper 4*sqrt(2k)=%.4f shares=(%.2f, %.2f, %.2f, %.2f)\n",
			k, sol.CostPerEdge, 4*math.Sqrt(2*k),
			sol.Shares[0], sol.Shares[1], sol.Shares[2], sol.Shares[3])
	}
}

func ex43() {
	header("Example 4.3 — C6 variable-oriented, k=500,000, m=1e9")
	model := shares.Model{NumVars: 6, Subgoals: []shares.Subgoal{
		{Vars: []int{0, 1}, Coef: 1}, {Vars: []int{0, 5}, Coef: 1},
		{Vars: []int{1, 2}, Coef: 2}, {Vars: []int{2, 3}, Coef: 2},
		{Vars: []int{3, 4}, Coef: 2}, {Vars: []int{4, 5}, Coef: 2},
	}}
	sol, err := model.Solve(500000)
	if err != nil {
		panic(err)
	}
	paper := []float64{5, 10, 10, 10, 10, 10}
	fmt.Printf("paper shares (5,10,10,10,10,10): cost/edge = %.0f\n", model.CostPerEdge(paper))
	fmt.Printf("solver cost/edge = %.2f (optimum is a flat manifold; cost is the invariant)\n", sol.CostPerEdge)
	fmt.Printf("total communication at m=1e9: %.3g (paper claims 5e13; its own formulas give 6e13 —\n", sol.CostPerEdge*1e9)
	fmt.Println(" the unidirectional terms E(X1,X2), E(X1,X6) replicate 10^4 times each, not 5·10^3)")
	fmt.Printf("per-reducer input: %.3g edges (paper: ~1e8)\n", sol.CostPerEdge*1e9/500000)
}

func ex44() {
	header("Example 4.4 / Eq.(2) — corrected closed form (s1=s2=s3=2, d=2 witness)")
	model := shares.Model{NumVars: 6, Subgoals: []shares.Subgoal{
		{Vars: []int{0, 1}, Coef: 2}, {Vars: []int{1, 2}, Coef: 2}, {Vars: []int{0, 5}, Coef: 2},
		{Vars: []int{2, 3}, Coef: 1}, {Vars: []int{3, 4}, Coef: 1}, {Vars: []int{4, 5}, Coef: 1},
	}}
	k := 1e6
	a, b, z := shares.Example44Shares(k, 2, 2, 2)
	closed := []float64{a, a, z, b, b, z}
	sol, err := model.Solve(k)
	if err != nil {
		panic(err)
	}
	fmt.Printf("closed form: a=%.4f (=2^(2/3)·b), b=%.4f, z=%.4f (=2^(1/3)·b)\n", a, b, z)
	fmt.Printf("closed-form cost/edge=%.4f, solver cost/edge=%.4f\n", model.CostPerEdge(closed), sol.CostPerEdge)
	fmt.Println("(the paper prints \"ab = 2^{1/3}\", \"z = b·2^{2/3}\" and exponent (s1+2s2);")
	fmt.Println(" those constants do not satisfy its own Lagrange equalities — ours do, verified numerically)")
}

func ex45() {
	header("Example 4.5 / Eq.(3) — S2 independent and covering (C4 witness: S2={X2,X4})")
	model := shares.Model{NumVars: 4, Subgoals: []shares.Subgoal{
		{Vars: []int{0, 1}, Coef: 2}, {Vars: []int{0, 3}, Coef: 2},
		{Vars: []int{1, 2}, Coef: 1}, {Vars: []int{2, 3}, Coef: 1},
	}}
	for _, k := range []float64{64, 4096} {
		sol, err := model.Solve(k)
		if err != nil {
			panic(err)
		}
		fmt.Printf("k=%-6.0f solver cost/edge=%.4f Eq.(3) (kpd/2)·2^(2s3/p)/k^(2/p)=%.4f\n",
			k, sol.CostPerEdge, shares.Eq3Cost(k, 4, 2, 1))
	}
}

func thm41() {
	header("Theorem 4.1 — regular samples get equal shares k^(1/p)")
	for _, s := range []*sample.Sample{sample.Triangle(), sample.Cycle(5), sample.Complete(4), sample.Hypercube(3)} {
		p := s.P()
		d, _ := s.IsRegular()
		model := shares.Model{NumVars: p}
		for _, e := range s.Edges() {
			model.Subgoals = append(model.Subgoals, shares.Subgoal{Vars: []int{e[0], e[1]}, Coef: 1})
		}
		k := math.Pow(4, float64(p))
		sol, err := model.Solve(k)
		if err != nil {
			panic(err)
		}
		min, max := sol.Shares[0], sol.Shares[0]
		for _, sh := range sol.Shares {
			min = math.Min(min, sh)
			max = math.Max(max, sh)
		}
		fmt.Printf("%-50v d=%d k=%.0f: shares in [%.4f, %.4f] (k^(1/p)=%.4f), cost=%.1f (closed form %.1f)\n",
			s, d, k, min, max, math.Pow(k, 1/float64(p)), sol.CostPerEdge, shares.RegularCostPerEdge(p, d, k))
	}
}

func thm42() {
	header("Theorem 4.2 — useful reducers C(b+p-1,p); per-edge replication C(b+p-3,p-2)")
	g := subgraphmr.Gnm(200, 2000, 5)
	for _, tc := range []struct {
		s *sample.Sample
		b int
	}{{sample.Triangle(), 8}, {sample.Square(), 6}, {sample.Cycle(5), 4}} {
		_, res := run(g, tc.s, subgraphmr.WithStrategy(subgraphmr.StrategyBucketOriented),
			subgraphmr.WithBuckets(tc.b), subgraphmr.WithSeed(9))
		p := tc.s.P()
		m := res.Jobs[0].Metrics
		fmt.Printf("p=%d b=%d: reducers=%d (formula %0.f), comm/edge=%.0f (formula %.0f)\n",
			p, tc.b, m.DistinctKeys, shares.UsefulReducers(tc.b, p),
			float64(m.KeyValuePairs)/float64(g.NumEdges()), shares.BucketEdgeReplication(tc.b, p))
	}
}

func sec45() {
	header("Section 4.5 — generalized Partition vs bucket-oriented replication ratio 1+1/(p-1)")
	for _, p := range []int{3, 4, 5, 6} {
		b := 5000
		ratio := shares.GeneralizedPartitionEdgeReplication(b, p) / shares.BucketEdgeReplication(b, p)
		fmt.Printf("p=%d (b=%d): measured ratio %.4f, paper asymptote %.4f\n",
			p, b, ratio, 1+1/float64(p-1))
	}
}

func sec5() {
	header("Section 5 — minimum cycle CQ counts")
	fmt.Println("p   classes  conditional bound (2^p-2)/(2p)   notes")
	for p := 3; p <= 10; p++ {
		note := ""
		switch p {
		case 5:
			note = "paper Example 5.3: 3 ✓"
		case 6:
			note = "paper says 7; true count is 8 (classes 1122 and 1221 are distinct) — see EXPERIMENTS.md"
		case 7:
			note = "paper Example 5.5: 9 ✓ (its list names 1123≡1132 twice and omits 1231)"
		}
		fmt.Printf("%-3d %-8d %-32.2f %s\n", p, len(cycles.Generate(p)), cycles.ConditionalUpperBound(p), note)
	}
}

func thm61() {
	header("Theorem 6.1 / Section 2.3 — convertibility: total reducer work vs serial work")
	g := subgraphmr.Gnm(1500, 9000, 7)
	serialWork := serial.Triangles(g, func(_, _, _ graph.Node) {})
	fmt.Printf("serial triangle work: %d\n", serialWork)
	for _, b := range []int{2, 4, 8, 16} {
		m := runTriangle(g, subgraphmr.StrategyTriangleBucketOrdered, b)
		fmt.Printf("b=%-3d reducers=%-5d total reducer work=%-9d comm=%-9d work/serial=%.2f work/(serial+comm)=%.2f\n",
			b, m.DistinctKeys, m.ReducerWork, m.KeyValuePairs,
			float64(m.ReducerWork)/float64(serialWork),
			float64(m.ReducerWork)/float64(serialWork+m.KeyValuePairs))
	}
}

func lem71() {
	header("Lemma 7.1 — properly ordered 2-paths are O(m^(3/2))")
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"G(n,m) uniform", graph.Gnm(3000, 18000, 7)},
		{"power law", graph.PowerLaw(3000, 12, 2.2, 7)},
		{"star (worst case for naive 2-paths)", graph.StarGraph(5000)},
	} {
		count := serial.ProperlyOrdered2Paths(tc.g, func(serial.TwoPath) {})
		m := float64(tc.g.NumEdges())
		fmt.Printf("%-38s m=%-7d 2-paths=%-9d ratio to m^(3/2)=%.4f\n",
			tc.name, tc.g.NumEdges(), count, float64(count)/math.Pow(m, 1.5))
	}
}

func thm71() {
	header("Theorem 7.1 / Algorithm 1 — OddCycle exactness and work scaling")
	g := subgraphmr.Gnm(40, 120, 7)
	for _, k := range []int{2, 3} {
		p := 2*k + 1
		count := int64(0)
		work := subgraphmr.OddCycles(g, k, func([]subgraphmr.Node) { count++ })
		oracle := serial.CountCycles(g, p)
		fmt.Printf("C%d: OddCycle found %d (oracle %d), work=%d, work/m^(k+1/2)=%.4f\n",
			p, count, oracle, work, float64(work)/math.Pow(float64(g.NumEdges()), float64(k)+0.5))
	}
}

func thm73() {
	header("Theorem 7.3 — bounded-degree enumeration O(m·Δ^(p-2)); Δ-regular tree tightness")
	star := sample.Star(4)
	for _, delta := range []int{3, 6, 12} {
		g := graph.RegularTree(delta, 4)
		got, work, err := serial.EnumerateBoundedDegree(g, star)
		if err != nil {
			panic(err)
		}
		var formula int64
		for v := 0; v < g.NumNodes(); v++ {
			d := g.Degree(graph.Node(v))
			formula += int64(shares.Binomial(d, star.P()-1))
		}
		norm := float64(g.NumEdges()) * math.Pow(float64(delta), float64(star.P()-2))
		fmt.Printf("Δ=%-3d m=%-6d 4-stars=%-8d (Σ C(deg,3)=%d), work/(m·Δ^(p-2))=%.3f\n",
			delta, g.NumEdges(), len(got), formula, float64(work)/norm)
	}
}

func sec74() {
	header("Section 7.4 — 5-cycle join bounds with unequal relation sizes")
	cases := [][5]float64{
		{100, 100, 100, 100, 100},
		{100, 1, 100, 1, 100},
		{1, 100, 1, 100, 1},
		{2, 1000, 2, 1000, 2},
	}
	for _, n := range cases {
		fmt.Printf("sizes %v: tight output bound = %.4g (sqrt of product = %.4g)\n",
			n, shares.FiveCycleJoinBound(n), math.Sqrt(n[0]*n[1]*n[2]*n[3]*n[4]))
	}
	fmt.Println("(the paper's closing example says (1,n,1,n,1) gives n; by its own case-B rule the")
	fmt.Println(" bound is n1·n5·n3 = 1, and it is the complementary pattern (n,1,n,1,n) that gives n)")

	// Live joins on the worst-case constructions.
	relsA := multijoin.WorstCaseA(4)
	rowsA, _ := multijoin.CycleJoin(relsA)
	fmt.Printf("case A witness (all relations the 4×4 grid): output %d = 4^5 = sqrt(Πn) ✓\n", len(rowsA))

	relsB := multijoin.WorstCaseB(5, 4, 6, 50)
	rowsB, _ := multijoin.CycleJoin(relsB)
	var sizes [5]float64
	for i, r := range relsB {
		sizes[i] = float64(r.Size())
	}
	bound, _, rot := multijoin.Bound(sizes)
	rowsPlan, work := multijoin.FiveCycleCaseB(relsB, rot)
	fmt.Printf("case B witness (n1=5, n3=4, n5=6 + padding): output %d = n1·n3·n5 = bound %.0f;\n",
		len(rowsB), bound)
	fmt.Printf("  case-B plan reproduces it with %d rows at work %d ≈ n1·n3·n5 = %d\n",
		len(rowsPlan), work, 5*4*6)
}
