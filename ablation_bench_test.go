// Ablation benchmarks for the design choices DESIGN.md calls out: the
// one-round multiway join versus the conventional two-round cascade, the
// Section 5 cycle CQs versus the general Section 3 pipeline, approximate
// counting versus exact enumeration, and the directed/labeled extension.
package subgraphmr

import (
	"fmt"
	"math"
	"testing"

	"subgraphmr/internal/approx"
	"subgraphmr/internal/directed"
	"subgraphmr/internal/tworound"
)

// BenchmarkAblationCascadeVsOneRound quantifies the paper's introduction
// claim: the cascade of two-way joins ships the materialized wedge
// relation, which explodes when hub neighborhoods straddle the node order.
func BenchmarkAblationCascadeVsOneRound(b *testing.B) {
	// Random graph plus a mid-id hub.
	base := Gnm(1500, 4000, 3)
	bld := NewGraphBuilder(1500)
	for _, e := range base.Edges() {
		bld.AddEdge(e.U, e.V)
	}
	for v := Node(0); v < 1500; v++ {
		if v != 750 {
			bld.AddEdge(750, v)
		}
	}
	g := bld.Graph()

	b.Run("cascade-two-rounds", func(b *testing.B) {
		plan := mustPlan(b, g, Triangle(), WithStrategy(StrategyTwoRound))
		var total int64
		for i := 0; i < b.N; i++ {
			total = mustRun(b, plan).TotalComm()
		}
		b.ReportMetric(float64(total)/float64(g.NumEdges()), "comm/edge")
		b.ReportMetric(float64(tworound.WedgeCount(g)), "wedges")
	})
	b.Run("one-round-bucketordered", func(b *testing.B) {
		plan := mustPlan(b, g, Triangle(), WithStrategy(StrategyTriangleBucketOrdered), WithBuckets(10), WithSeed(7))
		var total int64
		for i := 0; i < b.N; i++ {
			total = mustRun(b, plan).TotalComm()
		}
		b.ReportMetric(float64(total)/float64(g.NumEdges()), "comm/edge")
	})
}

// BenchmarkAblationCycleCQs compares the Section 5 run-sequence CQs with
// the general Section 3 pipeline for cycle samples: identical instances
// and communication, fewer CQs and less reducer work.
func BenchmarkAblationCycleCQs(b *testing.B) {
	g := Gnm(300, 900, 9)
	for _, p := range []int{5, 6} {
		for _, useCycle := range []bool{false, true} {
			name := fmt.Sprintf("C%d/general", p)
			if useCycle {
				name = fmt.Sprintf("C%d/run-sequence", p)
			}
			b.Run(name, func(b *testing.B) {
				opts := []Option{WithStrategy(StrategyBucketOriented), WithBuckets(4), WithSeed(2)}
				if useCycle {
					opts = append(opts, WithCycleCQs())
				}
				plan := mustPlan(b, g, CycleSample(p), opts...)
				var res *Result
				for i := 0; i < b.N; i++ {
					res = mustRun(b, plan)
				}
				b.ReportMetric(float64(res.NumCQs), "CQs")
				b.ReportMetric(float64(res.TotalReducerWork()), "reducer_work")
				b.ReportMetric(float64(len(res.Instances)), "instances")
			})
		}
	}
}

// BenchmarkAblationApproxVsExact positions the related-work baselines:
// Doulion trades accuracy for time; color coding estimates path counts.
func BenchmarkAblationApproxVsExact(b *testing.B) {
	g := Gnm(1200, 14000, 5)
	exact := float64(CountTriangles(g))
	b.Run("exact-serial", func(b *testing.B) {
		var n int64
		for i := 0; i < b.N; i++ {
			n = CountTriangles(g)
		}
		b.ReportMetric(float64(n), "triangles")
		b.ReportMetric(0, "rel_err")
	})
	for _, q := range []float64{0.5, 0.2} {
		b.Run(fmt.Sprintf("doulion-q=%.1f", q), func(b *testing.B) {
			var est float64
			for i := 0; i < b.N; i++ {
				est = approx.DoulionTriangles(g, q, 1, int64(i)+1)
			}
			b.ReportMetric(est, "triangles")
			b.ReportMetric(math.Abs(est-exact)/exact, "rel_err")
		})
	}
}

// BenchmarkAblationDirected measures the directed/labeled extension: the
// bucket scheme's communication per arc is the same C(b+p-3, p-2) shape.
func BenchmarkAblationDirected(b *testing.B) {
	g := directed.RandomDiGraph(800, 6000, 3, 7)
	for _, p := range []int{3, 4} {
		b.Run(fmt.Sprintf("directed-C%d", p), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = EnumerateDirectedContext(b.Context(), g, directed.DirectedCycle(p, 0), nil, WithBuckets(5), WithSeed(3))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.TotalComm())/float64(g.NumArcs()), "comm/arc")
			b.ReportMetric(float64(len(res.Instances)), "instances")
		})
	}
}

// BenchmarkAblationShareRounding measures the integer-rounding gap: the
// predicted cost at rounded shares versus the fractional optimum.
func BenchmarkAblationShareRounding(b *testing.B) {
	g := Gnm(300, 1200, 5)
	for _, k := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("lollipop-k=%d", k), func(b *testing.B) {
			plan := mustPlan(b, g, Lollipop(), WithStrategy(StrategyVariableOriented), WithTargetReducers(k), WithSeed(3))
			var res *Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, plan)
			}
			job := res.Jobs[0]
			b.ReportMetric(job.PredictedCommPerEdge, "integer_cost")
			b.ReportMetric(job.OptimalCommPerEdge, "fractional_cost")
			b.ReportMetric(job.PredictedCommPerEdge/job.OptimalCommPerEdge, "rounding_gap")
		})
	}
}

// BenchmarkAblationEnginePartitioning measures engine scaling with worker
// parallelism on a fixed triangle job.
func BenchmarkAblationEnginePartitioning(b *testing.B) {
	g := Gnm(2000, 16000, 11)
	for _, par := range []int{1, 4, 0} { // 0 = GOMAXPROCS
		name := fmt.Sprintf("workers=%d", par)
		if par == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			plan := mustPlan(b, g, Triangle(), WithStrategy(StrategyBucketOriented), WithBuckets(8), WithParallelism(par), WithSeed(1))
			for i := 0; i < b.N; i++ {
				mustRun(b, plan)
			}
		})
	}
}
