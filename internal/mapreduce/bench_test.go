package mapreduce

import (
	"fmt"
	"testing"

	"subgraphmr/internal/graph"
)

// wedgeRound is the shuffle-heavy round 1 of the cascade baseline: each
// edge is emitted under both endpoints and every reducer counts the wedges
// centered at its node. On power-law graphs the hub keys make the reduce
// input heavily skewed — the regime where pipelining the shuffle matters.
func wedgeMap(e graph.Edge, emit func(graph.Node, graph.Node)) {
	emit(e.U, e.V)
	emit(e.V, e.U)
}

func wedgeReduce(ctx *Context, _ graph.Node, neighbors []graph.Node, emit func(int64)) {
	n := int64(len(neighbors))
	ctx.AddWork(n)
	emit(n * (n - 1) / 2)
}

// benchGraphs are the benchmark corpora: a uniform Gnm graph and a skewed
// Chung–Lu power-law graph of comparable size.
func benchGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnm":      graph.Gnm(20000, 120000, 7),
		"powerlaw": graph.PowerLaw(20000, 12, 2.1, 7),
	}
}

// BenchmarkPipelinedVsBarrier compares the pipelined partitioned engine
// against the original global-barrier engine on the same job, inputs and
// worker budget.
func BenchmarkPipelinedVsBarrier(b *testing.B) {
	for name, g := range benchGraphs() {
		edges := g.Edges()
		want := int64(2 * len(edges))
		for _, engine := range []string{"pipelined", "barrier"} {
			b.Run(fmt.Sprintf("%s/%s", name, engine), func(b *testing.B) {
				var m Metrics
				for i := 0; i < b.N; i++ {
					if engine == "pipelined" {
						_, m = Run(Config{}, edges, wedgeMap, wedgeReduce)
					} else {
						_, m = runBarrier(Config{}, edges, wedgeMap, wedgeReduce)
					}
					if m.KeyValuePairs != want {
						b.Fatalf("engine dropped pairs: %d != %d", m.KeyValuePairs, want)
					}
				}
				b.ReportMetric(float64(m.KeyValuePairs), "pairs/op")
				b.ReportMetric(float64(m.MaxReducerInput), "maxload")
			})
		}
	}
}

// BenchmarkSpillVsInMemory prices the external shuffle: the same wedge job
// fully in memory, under a 1 MiB budget (spilling but few runs), and under
// a 64 KiB budget (many runs, exercising the compaction passes), on both
// the uniform and the skewed corpus. The budgets sit far below the
// multi-megabyte in-memory group tables, so every budgeted run spills.
func BenchmarkSpillVsInMemory(b *testing.B) {
	for name, g := range benchGraphs() {
		edges := g.Edges()
		want := int64(2 * len(edges))
		for _, bench := range []struct {
			label  string
			budget int64
		}{
			{"inmemory", 0},
			{"spill-1MiB", 1 << 20},
			{"spill-64KiB", 64 << 10},
		} {
			b.Run(fmt.Sprintf("%s/%s", name, bench.label), func(b *testing.B) {
				var m Metrics
				for i := 0; i < b.N; i++ {
					_, m = Run(Config{MemoryBudget: bench.budget, SpillDir: b.TempDir()},
						edges, wedgeMap, wedgeReduce)
					if m.KeyValuePairs != want {
						b.Fatalf("engine dropped pairs: %d != %d", m.KeyValuePairs, want)
					}
					if bench.budget > 0 && m.SpilledPairs == 0 {
						b.Fatalf("budget %d did not spill", bench.budget)
					}
				}
				b.ReportMetric(float64(m.SpilledPairs), "spilled/op")
				b.ReportMetric(float64(m.SpillFiles), "runs/op")
			})
		}
	}
}
