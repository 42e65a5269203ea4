package difftest

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"subgraphmr/internal/core"
	"subgraphmr/internal/directed"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/shares"
	"subgraphmr/internal/triangle"
)

// mode is one memory budget a check runs under.
type mode struct {
	name   string
	budget int64
}

// modes runs every check twice: fully in memory, and under a memory budget
// tiny enough that each reduce worker of a plain job (the cascade) must
// spill — the differential answer has to be identical either
// way.
var modes = []mode{{"in-memory", 0}, {"spill", 2048}}

// blockModes are the budgets a block job (every share-hashed strategy and
// the directed path) runs under: the same answer under each, and never a
// spill — see blockEngine and wantNoSpill.
var blockModes = []mode{{"in-memory", 0}, {"budget-1", 1}, {"budget-2048", 2048}}

// wantSpill asserts the spill mode actually exercised a plain job's
// external shuffle (plain set) and that nothing else spilled: a run of
// block jobs reports no Spill* under any budget.
func wantSpill(t *testing.T, plain bool, budget int64, m mapreduce.Metrics) {
	t.Helper()
	switch {
	case plain && budget > 0 && m.SpilledPairs == 0:
		t.Errorf("budget %d never spilled (metrics %+v)", budget, m)
	case (!plain || budget == 0) && (m.SpilledPairs != 0 || m.SpillBytes != 0 || m.SpillFiles != 0):
		t.Errorf("run spilled under budget %d (plain jobs %v): %+v", budget, plain, m)
	}
}

// blockEngine is the engine a block path runs on under budget, its spill
// directory one that does not exist: a block job must never open it.
func blockEngine(t *testing.T, budget int64) mapreduce.Config {
	return mapreduce.Config{Parallelism: 2, Partitions: 2, MemoryBudget: budget, SpillDir: filepath.Join(t.TempDir(), "missing")}
}

// wantNoSpill asserts a block job spilled nothing and created no spill
// file, whatever its budget.
func wantNoSpill(t *testing.T, cfg mapreduce.Config, m mapreduce.Metrics) {
	t.Helper()
	wantSpill(t, false, cfg.MemoryBudget, m)
	if _, err := os.Stat(cfg.SpillDir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("block job touched the spill directory %s: %v", cfg.SpillDir, err)
	}
}

func TestEnumerateAllStrategies(t *testing.T) {
	for gname, g := range Graphs(7) {
		for _, s := range Samples() {
			for _, strat := range []core.Strategy{core.BucketOriented, core.VariableOriented, core.CQOriented} {
				for _, mode := range blockModes {
					name := fmt.Sprintf("%s/%v/%v/%s", gname, s, strat, mode.name)
					t.Run(name, func(t *testing.T) {
						engine := blockEngine(t, mode.budget)
						m, err := CheckEnumerate(t.Context(), g, s, strat, core.Options{
							TargetReducers: 64,
							Seed:           11,
							Engine:         engine,
						})
						if err != nil {
							t.Fatal(err)
						}
						wantNoSpill(t, engine, m)
					})
				}
			}
		}
	}
}

func TestDecomposed(t *testing.T) {
	for gname, g := range Graphs(9) {
		for _, s := range Samples() {
			if s.P() < 3 {
				continue // decomposition needs at least one non-edge part
			}
			for _, mode := range blockModes {
				t.Run(fmt.Sprintf("%s/%v/%s", gname, s, mode.name), func(t *testing.T) {
					engine := blockEngine(t, mode.budget)
					m, err := CheckDecomposed(t.Context(), g, s, core.Options{
						TargetReducers: 64,
						Seed:           5,
						Engine:         engine,
					})
					if err != nil {
						t.Fatal(err)
					}
					wantNoSpill(t, engine, m)
				})
			}
		}
	}
}

func TestTwoRoundCascade(t *testing.T) {
	for gname, g := range Graphs(13) {
		for _, mode := range modes {
			t.Run(gname+"/"+mode.name, func(t *testing.T) {
				m, err := CheckTwoRound(t.Context(), g, mapreduce.Config{
					Parallelism: 2, Partitions: 2, MemoryBudget: mode.budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				wantSpill(t, true, mode.budget, m)
			})
		}
	}
}

func TestTriangleAlgorithms(t *testing.T) {
	for gname, g := range Graphs(17) {
		for _, algo := range triangle.Algos {
			for _, mode := range blockModes {
				t.Run(fmt.Sprintf("%s/%s/%s", gname, algo.Name, mode.name), func(t *testing.T) {
					engine := blockEngine(t, mode.budget)
					m, err := CheckTriangle(t.Context(), g, algo, 4, 3, engine)
					if err != nil {
						t.Fatal(err)
					}
					wantNoSpill(t, engine, m)
				})
			}
		}
		// Section 2.3's algorithm is the bucket-oriented job at p = 3.
		for _, mode := range blockModes {
			t.Run(fmt.Sprintf("%s/bucket/%s", gname, mode.name), func(t *testing.T) {
				engine := blockEngine(t, mode.budget)
				m, err := CheckEnumerate(t.Context(), g, sample.Triangle(), core.BucketOriented, core.Options{Buckets: 4, Seed: 3, Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				wantNoSpill(t, engine, m)
			})
		}
	}
}

func TestDirectedPatterns(t *testing.T) {
	g := directed.RandomDiGraph(28, 110, 2, 23)
	patterns := map[string]*directed.DiPattern{
		"cycle3": directed.DirectedCycle(3, 0),
		"path3":  directed.DirectedPath(3, 0),
		"fanin3": directed.FanIn(3, 0),
	}
	for pname, pt := range patterns {
		for _, mode := range blockModes {
			t.Run(pname+"/"+mode.name, func(t *testing.T) {
				engine := blockEngine(t, mode.budget)
				m, err := CheckDirected(t.Context(), g, pt, core.Options{Buckets: 4, Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				wantNoSpill(t, engine, m)
			})
		}
	}
}

// TestOneByteBudget is the stress extreme: a budget of one byte makes the
// cascade's plain jobs spill after every single pair, driving the run count
// through the merge fan-in compaction, and must still agree with the
// oracle.
func TestOneByteBudget(t *testing.T) {
	g := Graphs(29)["gnm"]
	m, err := CheckTwoRound(t.Context(), g, mapreduce.Config{Parallelism: 2, Partitions: 2, MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.SpilledPairs != m.KeyValuePairs || m.SpillFiles < 4 {
		t.Errorf("one-byte budget should spill per pair, metrics %+v", m)
	}
	if m.SpillFiles <= m.SpilledPairs {
		t.Errorf("one run per pair and no merge output: the fan-in compaction never ran (metrics %+v)", m)
	}
}

// TestProbeMatchesRun pins "same loads" for the seven single-round
// strategies: the load probe the adaptive planner would consult and the job
// itself are built from one mapper, so the probe's pairs, keys and hottest
// reducer are the run's to the last pair — and for the strategies whose
// communication is a closed form in b, that form times m.
func TestProbeMatchesRun(t *testing.T) {
	const (
		seed = 11
		b    = 4
		k    = 64
	)
	cfg := mapreduce.Config{Parallelism: 2, Partitions: 2}
	same := func(t *testing.T, ls mapreduce.LoadStats, err error, m mapreduce.Metrics) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if ls.Pairs != m.KeyValuePairs || ls.Keys != m.DistinctKeys || ls.MaxLoad != m.MaxReducerInput {
			t.Errorf("probe saw %+v, the run shipped pairs=%d keys=%d maxload=%d",
				ls, m.KeyValuePairs, m.DistinctKeys, m.MaxReducerInput)
		}
	}
	closed := func(t *testing.T, perEdge float64, g *graph.Graph, m mapreduce.Metrics) {
		t.Helper()
		if want := int64(perEdge) * int64(g.NumEdges()); m.KeyValuePairs != want {
			t.Errorf("shipped %d pairs, closed form %v × m = %d", m.KeyValuePairs, perEdge, want)
		}
	}
	for gname, g := range Graphs(7) {
		for _, s := range []*sample.Sample{sample.Triangle(), sample.Square(), sample.Lollipop()} {
			p := s.P()
			opt := core.Options{Buckets: b, TargetReducers: k, Seed: seed, Engine: mapreduce.Config{Parallelism: 2, Partitions: 2}}
			set, err := core.CompileCQs(s)
			if err != nil {
				t.Fatal(err)
			}
			qs := set.CQs
			run := func(t *testing.T, st core.Strategy) *core.Result {
				res, err := core.Enumerate(t.Context(), g, s, st, set, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			t.Run(fmt.Sprintf("%s/%v/bucket-oriented", gname, s), func(t *testing.T) {
				m := run(t, core.BucketOriented).Jobs[0].Metrics
				ls, err := core.ProbeBucketLoads(g, p, b, seed, cfg)
				same(t, ls, err, m)
				closed(t, shares.BucketEdgeReplication(b, p), g, m)
			})
			t.Run(fmt.Sprintf("%s/%v/decomposed", gname, s), func(t *testing.T) {
				res, err := core.EnumerateDecomposed(t.Context(), g, s, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				ls, err := core.ProbeBucketLoads(g, p, b, seed, cfg)
				same(t, ls, err, res.Jobs[0].Metrics)
				closed(t, shares.BucketEdgeReplication(b, p), g, res.Jobs[0].Metrics)
			})
			t.Run(fmt.Sprintf("%s/%v/variable-oriented", gname, s), func(t *testing.T) {
				job := run(t, core.VariableOriented).Jobs[0]
				ls, err := core.ProbeVariableLoads(g, qs, job.Shares, seed, cfg)
				same(t, ls, err, job.Metrics)
			})
			t.Run(fmt.Sprintf("%s/%v/cq-oriented", gname, s), func(t *testing.T) {
				for j, job := range run(t, core.CQOriented).Jobs {
					ls, err := core.ProbeCQLoads(g, qs[j], job.Shares, seed, cfg)
					same(t, ls, err, job.Metrics)
				}
			})
		}
		for _, algo := range triangle.Algos {
			t.Run(fmt.Sprintf("%s/tri-%s", gname, algo.Name), func(t *testing.T) {
				m, err := algo.Run(t.Context(), g, b, seed, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				ls, err := algo.ProbeLoads(g, b, seed, cfg)
				same(t, ls, err, m)
				if algo.Name != triangle.Partition.Name { // Partition's form is an expectation
					closed(t, algo.CommPerEdge(b), g, m)
				}
			})
		}
		// ProbeLoads' "bucket" is Section 2.3's algorithm: the
		// bucket-oriented job at p = 3, b pairs per edge.
		t.Run(gname+"/tri-bucket", func(t *testing.T) {
			opt := core.Options{Buckets: b, Seed: seed, Engine: cfg}
			qs, err := core.CompileCQs(sample.Triangle())
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Enumerate(t.Context(), g, sample.Triangle(), core.BucketOriented, qs, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := triangle.ProbeLoads(g, "bucket", b, seed, cfg)
			same(t, ls, err, res.Jobs[0].Metrics)
			closed(t, shares.BucketEdgeReplication(b, 3), g, res.Jobs[0].Metrics)
		})
	}
}
