package subgraphmr

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// allPlanStrategies is every runnable strategy (triangle sample makes all
// of them viable).
var allPlanStrategies = []PlanStrategy{
	StrategyBucketOriented, StrategyVariableOriented, StrategyCQOriented,
	StrategyDecomposed, StrategyTwoRound,
	StrategyTrianglePartition, StrategyTriangleMultiway, StrategyTriangleBucketOrdered,
}

// TestEveryPathHonorsMemoryBudget runs every execution path under a tiny
// memory budget with an explicit spill dir and asserts the external
// shuffle actually engaged — proving MemoryBudget and SpillDir reach the
// engine on all of them, with unchanged results.
func TestEveryPathHonorsMemoryBudget(t *testing.T) {
	ctx := context.Background()
	g := Gnm(120, 500, 9)
	want := CountTriangles(g)
	for _, st := range allPlanStrategies {
		plan, err := Plan(g, Triangle(), WithStrategy(st), WithTargetReducers(64),
			WithSeed(3), WithMemoryBudget(2048), WithSpillDir(t.TempDir()))
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		res, err := Run(ctx, plan)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if res.Count != want {
			t.Errorf("%v under budget: %d triangles, oracle %d", st, res.Count, want)
		}
		var spilled int64
		for _, job := range res.Jobs {
			spilled += job.Metrics.SpilledPairs
		}
		if spilled == 0 {
			t.Errorf("%v: 2 KiB budget spilled nothing — MemoryBudget is not reaching this path", st)
		}
	}

	// The distributed runner: the engine knobs ride to the workers inside
	// the shipped options, so the workers' own jobs must spill.
	plan, err := Plan(g, Triangle(), WithStrategy(StrategyBucketOriented), WithTargetReducers(64),
		WithSeed(3), WithMemoryBudget(2048), WithSpillDir(t.TempDir()), WithDistributed(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("distributed under budget: %d triangles, oracle %d", res.Count, want)
	}
	var spilled int64
	for _, job := range res.Jobs {
		spilled += job.Metrics.SpilledPairs
	}
	if spilled == 0 {
		t.Error("distributed: 2 KiB budget spilled nothing on the workers — MemoryBudget is not reaching them")
	}

	// The directed path too.
	dg := RandomDiGraph(80, 400, 2, 5)
	pattern := DirectedCyclePattern(3, 0)
	res, err = EnumerateDirectedContext(t.Context(), dg, pattern, nil, WithBuckets(4), WithSeed(3), WithMemoryBudget(1024), WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Metrics.SpilledPairs == 0 {
		t.Error("directed: 1 KiB budget spilled nothing — MemoryBudget is not reaching the directed path")
	}
	if len(res.Instances) != len(DirectedBruteForce(dg, pattern)) {
		t.Error("directed under budget disagrees with the oracle")
	}
}

// TestEveryPathHonorsSpillDir proves SpillDir is plumbed through every
// path by pointing it at a nonexistent directory: the engine's documented
// response to unusable spill storage is a typed *EngineError at the spill
// stage, so a path that succeeds (or panics) is ignoring the option.
func TestEveryPathHonorsSpillDir(t *testing.T) {
	ctx := context.Background()
	g := Gnm(120, 500, 9)
	badDir := filepath.Join(t.TempDir(), "does", "not", "exist")
	expectEngineError := func(label string, err error) {
		t.Helper()
		var ee *EngineError
		if !errors.As(err, &ee) {
			t.Errorf("%s: error %v (%T) with an unusable spill dir — want *EngineError; SpillDir is not reaching this path", label, err, err)
			return
		}
		if ee.Stage != "spill" {
			t.Errorf("%s: EngineError stage %q, want %q", label, ee.Stage, "spill")
		}
	}
	for _, st := range allPlanStrategies {
		plan, err := Plan(g, Triangle(), WithStrategy(st), WithTargetReducers(64),
			WithSeed(3), WithMemoryBudget(2048), WithSpillDir(badDir))
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		_, err = Run(ctx, plan)
		expectEngineError(st.String(), err)
	}
	dg := RandomDiGraph(80, 400, 2, 5)
	_, err := EnumerateDirectedContext(t.Context(), dg, DirectedCyclePattern(3, 0), nil, WithBuckets(4), WithMemoryBudget(1024), WithSpillDir(badDir))
	expectEngineError("directed", err)
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
	dg := RandomDiGraph(80, 400, 2, 5)
	pattern := DirectedCyclePattern(3, 0)
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
