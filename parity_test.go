package subgraphmr

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"subgraphmr/internal/core"
	"subgraphmr/internal/directed"
)

// execOptionFields is the execution option set every path must expose:
// the config-duplication bug class this pins is a strategy silently
// ignoring a knob the others honor (directed.Options used to lack
// TargetReducers; SpillDir/Partitions parity was maintained by hand).
var execOptionFields = map[string]reflect.Type{
	"TargetReducers": reflect.TypeOf(int(0)),
	"Buckets":        reflect.TypeOf(int(0)),
	"Seed":           reflect.TypeOf(uint64(0)),
	"Parallelism":    reflect.TypeOf(int(0)),
	"Partitions":     reflect.TypeOf(int(0)),
	"MemoryBudget":   reflect.TypeOf(int64(0)),
	"SpillDir":       reflect.TypeOf(""),
}

// TestOptionStructParity asserts, at the type level, that every remaining
// options struct carries the full execution option set with matching
// types, so a knob added to one cannot silently miss the others.
func TestOptionStructParity(t *testing.T) {
	for name, typ := range map[string]reflect.Type{
		"core.Options":     reflect.TypeOf(core.Options{}),
		"directed.Options": reflect.TypeOf(directed.Options{}),
		"planOpts":         reflect.TypeOf(planOpts{}),
	} {
		for field, want := range execOptionFields {
			if name == "planOpts" {
				// The functional-options struct uses unexported names.
				field = lowerFirst(field)
			}
			f, ok := typ.FieldByName(field)
			if !ok {
				t.Errorf("%s lacks execution option %s", name, field)
				continue
			}
			if f.Type != want {
				t.Errorf("%s.%s has type %v, want %v", name, field, f.Type, want)
			}
		}
	}
}

func lowerFirst(s string) string {
	switch s {
	case "TargetReducers":
		return "targetReducers"
	case "Buckets":
		return "buckets"
	case "Seed":
		return "seed"
	case "Parallelism":
		return "parallelism"
	case "Partitions":
		return "partitions"
	case "MemoryBudget":
		return "memoryBudget"
	case "SpillDir":
		return "spillDir"
	}
	return s
}

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

	// The directed path too.
	dg := RandomDiGraph(80, 400, 2, 5)
	pattern := DirectedCyclePattern(3, 0)
	res, err := EnumerateDirectedContext(t.Context(), dg, pattern, DirectedOptions{
		Buckets: 4, Seed: 3, MemoryBudget: 1024, SpillDir: t.TempDir(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.SpilledPairs == 0 {
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
	_, err := EnumerateDirectedContext(t.Context(), dg, DirectedCyclePattern(3, 0), DirectedOptions{
		Buckets: 4, MemoryBudget: 1024, SpillDir: badDir,
	}, nil)
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
	small, err := EnumerateDirectedContext(t.Context(), dg, pattern, DirectedOptions{TargetReducers: 4, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	large, err := EnumerateDirectedContext(t.Context(), dg, pattern, DirectedOptions{TargetReducers: 512, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if small.Buckets >= large.Buckets {
		t.Errorf("directed TargetReducers ignored: b=%d for k=4, b=%d for k=512", small.Buckets, large.Buckets)
	}
	if len(small.Instances) != len(large.Instances) {
		t.Errorf("directed bucket counts changed the result: %d vs %d instances", len(small.Instances), len(large.Instances))
	}
}
