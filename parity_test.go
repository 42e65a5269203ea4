package subgraphmr

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"subgraphmr/internal/directed"
	"subgraphmr/internal/mapreduce"
)

// allPlanStrategies is every runnable strategy (triangle sample makes all
// of them viable).
var allPlanStrategies = []PlanStrategy{
	StrategyBucketOriented, StrategyVariableOriented, StrategyCQOriented,
	StrategyDecomposed, StrategyTwoRound,
	StrategyTrianglePartition, StrategyTriangleMultiway,
}

// TestEveryPathHonorsMemoryBudget: the cascade, the one strategy that runs
// plain map-reduce jobs, spills under a tiny budget, locally and on the
// distributed workers, with unchanged results — MemoryBudget and SpillDir
// reach its engine. Every other strategy and the directed path run block
// jobs, which hold each edge once and never spill: under budgets of 1 byte
// and 2 KiB, with a spill directory that does not exist, they find the
// instances they find without a budget, report no Spill* and create no
// file.
func TestEveryPathHonorsMemoryBudget(t *testing.T) {
	ctx := context.Background()
	g := Gnm(120, 500, 9)
	want := CountTriangles(g)
	spilled := func(res *Result) (m mapreduce.Metrics) {
		for _, job := range res.Jobs {
			m.SpilledPairs += job.Metrics.SpilledPairs
			m.SpillBytes += job.Metrics.SpillBytes
			m.SpillFiles += job.Metrics.SpillFiles
		}
		return m
	}
	for _, dist := range []bool{false, true} {
		opts := []Option{WithStrategy(StrategyTwoRound), WithSeed(3), WithMemoryBudget(2048), WithSpillDir(t.TempDir())}
		if dist {
			// The engine knobs ride to the workers inside the shipped
			// options, so the workers' own jobs must spill.
			opts = append(opts, WithDistributed(2))
		}
		res, err := Run(ctx, mustPlan(t, g, Triangle(), opts...))
		if err != nil {
			t.Fatalf("cascade (distributed %v): %v", dist, err)
		}
		if res.Count != want {
			t.Errorf("cascade (distributed %v) under budget: %d triangles, oracle %d", dist, res.Count, want)
		}
		if spilled(res).SpilledPairs == 0 {
			t.Errorf("cascade (distributed %v): 2 KiB budget spilled nothing — MemoryBudget is not reaching its engine", dist)
		}
	}

	parent := t.TempDir()
	missing := filepath.Join(parent, "missing")
	for _, st := range allPlanStrategies {
		if st == StrategyTwoRound {
			continue
		}
		unbudgeted := instanceKeys(Triangle(), planRun(t, g, Triangle(), WithStrategy(st), WithTargetReducers(64), WithSeed(3)).Instances)
		if int64(len(unbudgeted)) != want {
			t.Errorf("%v: %d triangles, oracle %d", st, len(unbudgeted), want)
		}
		for _, budget := range []int64{1, 2048} {
			res := planRun(t, g, Triangle(), WithStrategy(st), WithTargetReducers(64), WithSeed(3),
				WithMemoryBudget(budget), WithSpillDir(missing))
			if got := instanceKeys(Triangle(), res.Instances); !slices.Equal(got, unbudgeted) {
				t.Errorf("%v under budget %d: %d instances, without one %d", st, budget, len(got), len(unbudgeted))
			}
			if m := spilled(res); m != (mapreduce.Metrics{}) {
				t.Errorf("%v under budget %d spilled: %+v", st, budget, m)
			}
		}
	}

	dg := directed.RandomDiGraph(80, 400, 2, 5)
	pattern := directed.DirectedCycle(3, 0)
	oracle := len(DirectedBruteForce(dg, pattern))
	var unbudgeted []string
	for _, budget := range []int64{0, 1, 2048} {
		res, err := EnumerateDirectedContext(ctx, dg, pattern, nil, WithBuckets(4), WithSeed(3), WithMemoryBudget(budget), WithSpillDir(missing))
		if err != nil {
			t.Fatalf("directed under budget %d: %v", budget, err)
		}
		var got []string
		for _, phi := range res.Instances {
			got = append(got, fmt.Sprint(phi))
		}
		slices.Sort(got)
		if budget == 0 {
			unbudgeted = got
			if len(got) != oracle || oracle == 0 {
				t.Errorf("directed: %d instances, oracle %d", len(got), oracle)
			}
		} else if !slices.Equal(got, unbudgeted) {
			t.Errorf("directed under budget %d: instances %v, without one %v", budget, got, unbudgeted)
		}
		if m := spilled(res); m != (mapreduce.Metrics{}) {
			t.Errorf("directed under budget %d spilled: %+v", budget, m)
		}
	}
	if entries, err := os.ReadDir(parent); err != nil || len(entries) != 0 {
		t.Errorf("a block job touched the spill directory's parent: %v %v", entries, err)
	}
}

// TestEveryPathHonorsSpillDir proves SpillDir reaches the cascade, the one
// strategy that can spill, by pointing it at a nonexistent directory: the
// engine's documented response to unusable spill storage is a typed
// *EngineError at the spill stage, so a success (or a panic) means the
// option is ignored. The block strategies under the same options are
// TestEveryPathHonorsMemoryBudget's: they never open the directory.
func TestEveryPathHonorsSpillDir(t *testing.T) {
	badDir := filepath.Join(t.TempDir(), "does", "not", "exist")
	for _, dist := range []bool{false, true} {
		opts := []Option{WithStrategy(StrategyTwoRound), WithSeed(3), WithMemoryBudget(2048), WithSpillDir(badDir)}
		if dist {
			opts = append(opts, WithDistributed(2))
		}
		_, err := Run(context.Background(), mustPlan(t, Gnm(120, 500, 9), Triangle(), opts...))
		var ee *EngineError
		if !errors.As(err, &ee) {
			t.Errorf("cascade (distributed %v): error %v (%T) with an unusable spill dir — want *EngineError; SpillDir is not reaching it", dist, err, err)
		} else if ee.Stage != "spill" {
			t.Errorf("cascade (distributed %v): EngineError stage %q, want %q", dist, ee.Stage, "spill")
		}
	}
}

// TestEveryPathIsSeedDeterministic runs each path twice with the same seed
// and asserts identical instance sets and identical communication metrics.
func TestEveryPathIsSeedDeterministic(t *testing.T) {
	ctx := context.Background()
	g := Gnm(120, 500, 9)
	keysOf := func(res *Result) []string {
		keys := make([]string, 0, len(res.Instances))
		for _, phi := range res.Instances {
			keys = append(keys, Triangle().Key(phi))
		}
		sort.Strings(keys)
		return keys
	}
	for _, st := range allPlanStrategies {
		var prevKeys []string
		var prevComm int64
		for round := 0; round < 2; round++ {
			plan, err := Plan(g, Triangle(), WithStrategy(st), WithTargetReducers(64), WithSeed(42))
			if err != nil {
				t.Fatalf("%v: %v", st, err)
			}
			res, err := Run(ctx, plan)
			if err != nil {
				t.Fatalf("%v: %v", st, err)
			}
			keys, comm := keysOf(res), res.TotalComm()
			if round == 1 {
				if !reflect.DeepEqual(keys, prevKeys) {
					t.Errorf("%v: same seed produced different instance sets", st)
				}
				if comm != prevComm {
					t.Errorf("%v: same seed produced different communication (%d vs %d)", st, comm, prevComm)
				}
			}
			prevKeys, prevComm = keys, comm
		}
	}

	// TargetReducers parity on the directed path: a larger budget must not
	// be ignored (it changes the bucket count, hence the communication).
	dg := directed.RandomDiGraph(80, 400, 2, 5)
	pattern := directed.DirectedCycle(3, 0)
	small, err := EnumerateDirectedContext(t.Context(), dg, pattern, nil, WithTargetReducers(4), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	large, err := EnumerateDirectedContext(t.Context(), dg, pattern, nil, WithTargetReducers(512), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if bs, bl := small.Jobs[0].Shares[0], large.Jobs[0].Shares[0]; bs >= bl {
		t.Errorf("directed TargetReducers ignored: b=%d for k=4, b=%d for k=512", bs, bl)
	}
	if len(small.Instances) != len(large.Instances) {
		t.Errorf("directed bucket counts changed the result: %d vs %d instances", len(small.Instances), len(large.Instances))
	}
}
