// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark reports the paper's own metric as a custom
// unit (comm/edge, work ratios, CQ counts) so `go test -bench=.` reprints
// the paper's tables from live runs; EXPERIMENTS.md records the mapping.
package subgraphmr

import (
	"fmt"
	"math"
	"testing"

	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/shares"
)

// benchGraph is the shared data graph for the communication benchmarks.
var benchGraph = Gnm(2000, 12000, 42)

// BenchmarkFig1TriangleCommunication regenerates Fig. 1: the three
// triangle algorithms at (approximately) the same reducer budget k = 220;
// the reported comm/edge metrics should order Partition ≈ 1.5× and
// Multiway ≈ 1.65× BucketOrdered.
func BenchmarkFig1TriangleCommunication(b *testing.B) {
	k := 220
	cases := []struct {
		name     string
		strategy PlanStrategy
	}{
		{"Partition", StrategyTrianglePartition},
		{"Multiway", StrategyTriangleMultiway},
		{"BucketOrdered", StrategyTriangleBucketOrdered},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			// The planner derives each algorithm's Fig. 1 bucket count from k.
			plan := mustPlan(b, benchGraph, Triangle(), WithStrategy(c.strategy), WithTargetReducers(k), WithSeed(7))
			var m Metrics
			for i := 0; i < b.N; i++ {
				m = mustRun(b, plan).Jobs[0].Metrics
			}
			b.ReportMetric(float64(m.KeyValuePairs)/float64(benchGraph.NumEdges()), "comm/edge")
			b.ReportMetric(float64(m.DistinctKeys), "reducers")
			b.ReportMetric(float64(plan.Chosen.Buckets), "buckets")
		})
	}
}

// BenchmarkFig2TriangleConcrete regenerates Fig. 2: Partition at b=12
// (13.75m), Multiway at b=6 (16m), BucketOrdered at b=10 (10m).
func BenchmarkFig2TriangleConcrete(b *testing.B) {
	cases := []struct {
		name     string
		strategy PlanStrategy
		buckets  int
		paper    float64
	}{
		{"Partition_b12", StrategyTrianglePartition, 12, 13.75},
		{"Multiway_b6", StrategyTriangleMultiway, 6, 16},
		{"BucketOrdered_b10", StrategyTriangleBucketOrdered, 10, 10},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			plan := mustPlan(b, benchGraph, Triangle(), WithStrategy(c.strategy), WithBuckets(c.buckets), WithSeed(7))
			var res *Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, plan)
			}
			measured := float64(res.TotalComm()) / float64(benchGraph.NumEdges())
			b.ReportMetric(measured, "comm/edge")
			b.ReportMetric(c.paper, "paper_comm/edge")
		})
	}
}

// BenchmarkSerialTriangleScaling verifies the O(m^{3/2}) serial baseline:
// work/m^{3/2} stays bounded as m grows.
func BenchmarkSerialTriangleScaling(b *testing.B) {
	for _, m := range []int{2000, 8000, 32000} {
		g := Gnm(m/4, m, 7)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var work int64
			for i := 0; i < b.N; i++ {
				work = SerialTriangles(g, func(_, _, _ Node) {})
			}
			b.ReportMetric(float64(work)/math.Pow(float64(m), 1.5), "work/m^1.5")
		})
	}
}

// BenchmarkTwoPathScaling regenerates Lemma 7.1: properly ordered 2-paths
// number O(m^{3/2}) even on skewed graphs.
func BenchmarkTwoPathScaling(b *testing.B) {
	graphs := map[string]*Graph{
		"uniform":  Gnm(3000, 18000, 7),
		"powerlaw": PowerLaw(3000, 12, 2.2, 7),
	}
	for name, g := range graphs {
		m := float64(g.NumEdges())
		b.Run(name, func(b *testing.B) {
			var count int64
			for i := 0; i < b.N; i++ {
				count = ProperlyOrdered2Paths(g, func(TwoPath) {})
			}
			b.ReportMetric(float64(count)/math.Pow(m, 1.5), "paths/m^1.5")
		})
	}
}

// BenchmarkOddCycle regenerates Theorem 7.1 / Algorithm 1: per-cycle-length
// cost of the exact odd-cycle enumerator.
func BenchmarkOddCycle(b *testing.B) {
	g := Gnm(60, 220, 7)
	for _, k := range []int{2, 3} {
		b.Run(fmt.Sprintf("C%d", 2*k+1), func(b *testing.B) {
			var work, count int64
			for i := 0; i < b.N; i++ {
				count = 0
				work = OddCycles(g, k, func([]Node) { count++ })
			}
			b.ReportMetric(float64(count), "cycles")
			b.ReportMetric(float64(work)/math.Pow(float64(g.NumEdges()), float64(k)+0.5), "work/m^(k+1/2)")
		})
	}
}

// BenchmarkBoundedDegree regenerates Theorem 7.3: on Δ-regular trees the
// work of the bounded-degree enumerator scales as m·Δ^{p-2} (p = 4 stars).
func BenchmarkBoundedDegree(b *testing.B) {
	star := StarSample(4)
	for _, delta := range []int{3, 6, 12} {
		g := RegularTree(delta, 4)
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			var work int64
			for i := 0; i < b.N; i++ {
				var err error
				_, work, err = EnumerateBoundedDegree(g, star)
				if err != nil {
					b.Fatal(err)
				}
			}
			norm := float64(g.NumEdges()) * math.Pow(float64(delta), float64(star.P()-2))
			b.ReportMetric(float64(work)/norm, "work/(m·Δ^(p-2))")
		})
	}
}

// BenchmarkDecomposition regenerates Theorem 7.2: the decomposition
// algorithm on samples with q = 0 (work ~ m^{p/2}).
func BenchmarkDecomposition(b *testing.B) {
	g := Gnm(40, 140, 7)
	for _, tc := range []struct {
		name string
		s    *Sample
	}{{"square", Square()}, {"lollipop", Lollipop()}, {"c5", CycleSample(5)}} {
		s := tc.s
		b.Run(tc.name, func(b *testing.B) {
			var work int64
			for i := 0; i < b.N; i++ {
				_, work = EnumerateByDecomposition(g, s)
			}
			b.ReportMetric(float64(work)/math.Pow(float64(g.NumEdges()), float64(s.P())/2), "work/m^(p/2)")
		})
	}
}

// BenchmarkConvertibility regenerates Theorem 6.1 / Section 2.3: total
// reducer work over all reducers stays within a constant factor of the
// serial algorithm as the bucket count grows.
func BenchmarkConvertibility(b *testing.B) {
	g := Gnm(1500, 9000, 7)
	serialWork := SerialTriangles(g, func(_, _, _ Node) {})
	for _, buckets := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("b=%d", buckets), func(b *testing.B) {
			plan := mustPlan(b, g, Triangle(), WithStrategy(StrategyTriangleBucketOrdered), WithBuckets(buckets), WithSeed(7))
			var res *Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, plan)
			}
			b.ReportMetric(float64(res.TotalReducerWork())/float64(serialWork), "work_ratio")
		})
	}
}

// BenchmarkEnumerateStrategies compares the three Section 4 strategies on
// the square and the lollipop at the same reducer budget, reporting the
// measured communication per edge.
func BenchmarkEnumerateStrategies(b *testing.B) {
	g := Gnm(400, 1600, 7)
	for _, tc := range []struct {
		name string
		s    *Sample
	}{{"square", Square()}, {"lollipop", Lollipop()}} {
		s := tc.s
		for _, strat := range []PlanStrategy{StrategyBucketOriented, StrategyVariableOriented, StrategyCQOriented} {
			b.Run(fmt.Sprintf("%s/%v", tc.name, strat), func(b *testing.B) {
				plan := mustPlan(b, g, s, WithStrategy(strat), WithTargetReducers(256), WithSeed(7))
				var res *Result
				for i := 0; i < b.N; i++ {
					res = mustRun(b, plan)
				}
				b.ReportMetric(float64(res.TotalComm())/float64(g.NumEdges()), "comm/edge")
				b.ReportMetric(float64(len(res.Instances)), "instances")
			})
		}
	}
}

// BenchmarkBucketVsGeneralizedPartition regenerates the Section 4.5 ratio
// 1 + 1/(p-1) between generalized Partition and bucket-oriented
// replication.
func BenchmarkBucketVsGeneralizedPartition(b *testing.B) {
	for _, p := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				bb := 5000
				ratio = shares.GeneralizedPartitionEdgeReplication(bb, p) /
					shares.BucketEdgeReplication(bb, p)
			}
			b.ReportMetric(ratio, "ratio")
			b.ReportMetric(1+1/float64(p-1), "paper_ratio")
		})
	}
}

// BenchmarkCQGeneration measures the Section 3 pipeline (orderings →
// automorphism quotient → orientation merge).
func BenchmarkCQGeneration(b *testing.B) {
	for _, s := range []*Sample{Square(), Lollipop(), CycleSample(6), CliqueSample(5)} {
		b.Run(s.String(), func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				n = len(MergedCQsFor(s))
			}
			b.ReportMetric(float64(n), "CQs")
		})
	}
}

// BenchmarkCycleCQGeneration measures the Section 5 run-sequence generator
// and reports the minimum CQ counts (pentagon 3, hexagon 8, heptagon 9).
func BenchmarkCycleCQGeneration(b *testing.B) {
	for _, p := range []int{5, 6, 7, 10} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				n = len(CycleCQs(p))
			}
			b.ReportMetric(float64(n), "CQs")
		})
	}
}

// BenchmarkShareOptimizer measures the Section 4 geometric-program solver
// on the paper's worked examples.
func BenchmarkShareOptimizer(b *testing.B) {
	models := map[string]struct {
		m ShareModel
		k float64
	}{
		"Ex4.1_lollipopCQ1": {ShareModel{NumVars: 4, Subgoals: []ShareSubgoal{
			{Vars: []int{0, 1}, Coef: 1}, {Vars: []int{1, 2}, Coef: 1},
			{Vars: []int{1, 3}, Coef: 1}, {Vars: []int{2, 3}, Coef: 1}}}, 750},
		"Ex4.2_squareVO": {ShareModel{NumVars: 4, Subgoals: []ShareSubgoal{
			{Vars: []int{0, 1}, Coef: 1}, {Vars: []int{0, 3}, Coef: 1},
			{Vars: []int{1, 2}, Coef: 2}, {Vars: []int{2, 3}, Coef: 2}}}, 50000},
		"Ex4.3_C6VO": {ShareModel{NumVars: 6, Subgoals: []ShareSubgoal{
			{Vars: []int{0, 1}, Coef: 1}, {Vars: []int{0, 5}, Coef: 1},
			{Vars: []int{1, 2}, Coef: 2}, {Vars: []int{2, 3}, Coef: 2},
			{Vars: []int{3, 4}, Coef: 2}, {Vars: []int{4, 5}, Coef: 2}}}, 500000},
	}
	for name, tc := range models {
		b.Run(name, func(b *testing.B) {
			var sol ShareSolution
			for i := 0; i < b.N; i++ {
				var err error
				sol, err = OptimizeShares(tc.m, tc.k)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sol.CostPerEdge, "cost/edge")
		})
	}
}

// BenchmarkMapReduceEngine measures raw engine overhead (shuffle + reduce)
// per key-value pair.
func BenchmarkMapReduceEngine(b *testing.B) {
	inputs := make([]int, 100000)
	for i := range inputs {
		inputs[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := mapreduce.Job[int, int, int, int]{
			Map:    func(x int, emit func(int, int)) { emit(x%1024, x) },
			Reduce: func(_ *mapreduce.Context, k int, vs []int, emit func(int)) { emit(len(vs)) },
		}.RunStream(b.Context(), mapreduce.Config{}, inputs, func(int) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if m.KeyValuePairs != int64(len(inputs)) {
			b.Fatal("engine dropped pairs")
		}
	}
	b.ReportMetric(float64(len(inputs)), "pairs/op")
}
