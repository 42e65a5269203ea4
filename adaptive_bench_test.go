package subgraphmr

import (
	"context"
	"testing"
)

// BenchmarkAdaptiveSkewedGraph measures planning + execution on the
// planted-hub skew fixture, static versus WithAdaptive, reporting the
// hottest reducer's input (maxload — the straggler the adaptive planner
// optimizes) and the shipped pairs alongside ns/op: adaptive pays probe
// passes and more communication at a raised b to cut maxload on graphs like
// this one. (bench/ tracks the planning cost across PRs as
// planner.plan_adaptive_s.)
func BenchmarkAdaptiveSkewedGraph(b *testing.B) {
	g := hubGraph(2000, 600)
	modes := []struct {
		name string
		opts []Option
	}{
		{"static", nil},
		{"adaptive", []Option{WithAdaptive()}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			var maxload, comm int64
			for i := 0; i < b.N; i++ {
				plan, err := Plan(g, Triangle(), append([]Option{WithTargetReducers(1024), WithSeed(7), WithCountOnly()}, mode.opts...)...)
				if err != nil {
					b.Fatal(err)
				}
				res, err := Run(context.Background(), plan)
				if err != nil {
					b.Fatal(err)
				}
				maxload, comm = 0, 0
				for _, j := range res.Jobs {
					if j.Metrics.MaxReducerInput > maxload {
						maxload = j.Metrics.MaxReducerInput
					}
					comm += j.Metrics.KeyValuePairs
				}
			}
			b.ReportMetric(float64(maxload), "maxload")
			b.ReportMetric(float64(comm), "pairs/op")
		})
	}
}
