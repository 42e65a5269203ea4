package subgraphmr

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestQueryKeyCoversPlanOpts is the aliasing guard: every planOpts leaf
// field — struct fields are walked into, so each core.Options and engine
// knob is a leaf of its own — must have an explicit cache-key decision:
// encoded by QueryKey (listed in queryKeyIncludedFields) or exempted with
// a reason (queryKeyExemptFields). Adding an option without deciding
// fails here, so a new knob can never silently alias plan-cache entries.
func TestQueryKeyCoversPlanOpts(t *testing.T) {
	included := make(map[string]bool, len(queryKeyIncludedFields))
	for _, f := range queryKeyIncludedFields {
		included[f] = true
	}
	seen := make(map[string]bool)
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := prefix + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", f.Type)
				continue
			}
			seen[name] = true
			_, exempt := queryKeyExemptFields[name]
			switch {
			case included[name] && exempt:
				t.Errorf("planOpts.%s is both included in and exempted from QueryKey — pick one", name)
			case !included[name] && !exempt:
				t.Errorf("planOpts.%s has no cache-key decision: add it to QueryKey + queryKeyIncludedFields, or exempt it in queryKeyExemptFields with the reason", name)
			}
		}
	}
	walk("", reflect.TypeOf(planOpts{}))
	// No stale decisions for fields that no longer exist.
	for _, f := range queryKeyIncludedFields {
		if !seen[f] {
			t.Errorf("queryKeyIncludedFields lists %q, which is not a planOpts leaf field", f)
		}
	}
	for f := range queryKeyExemptFields {
		if !seen[f] {
			t.Errorf("queryKeyExemptFields lists %q, which is not a planOpts leaf field", f)
		}
	}
}

// TestQueryKeySensitivity drives every included field through a
// perturbation and asserts the key changes — proving the fields declared
// included really reach the key (the decision list cannot drift from the
// implementation).
func TestQueryKeySensitivity(t *testing.T) {
	s := Triangle()
	base := QueryKey("g1", s)
	perturb := map[string][]Option{
		"strategy":                 {WithStrategy(StrategyTriangleMultiway)},
		"core.TargetReducers":      {WithTargetReducers(7)},
		"core.Buckets":             {WithBuckets(5)},
		"countOnly":                {WithCountOnly()},
		"core.Seed":                {WithSeed(99)},
		"core.Engine.Parallelism":  {WithParallelism(2)},
		"core.Engine.Partitions":   {WithPartitions(3)},
		"core.Engine.MemoryBudget": {WithMemoryBudget(4096)},
		"core.Engine.SpillDir":     {WithSpillDir("/tmp/elsewhere")},
		"core.AdaptiveReplan":      {WithAdaptive()},
		"core.SkewThreshold":       {WithSkewThreshold(2.5)},
		"workers":                  {WithWorkers([]string{"127.0.0.1:1"})},
		"spawnWorkers":             {WithDistributed(2)},
		"workerTimeout":            {WithWorkerTimeout(time.Second)},
		"fault.Mode":               {WithFaultInjection(FaultSpec{Mode: FaultDrop})},
		"fault.Worker":             {WithFaultInjection(FaultSpec{Worker: 1})},
		"fault.AfterInstances":     {WithFaultInjection(FaultSpec{AfterInstances: 5})},
	}
	for _, field := range queryKeyIncludedFields {
		opts, ok := perturb[field]
		if !ok {
			t.Errorf("no perturbation registered for included field %q — register one so its key segment is verified", field)
			continue
		}
		if got := QueryKey("g1", s, opts...); got == base {
			t.Errorf("perturbing %s did not change the key %q", field, base)
		}
	}

	// Graph identity and sample structure are part of the key too.
	if QueryKey("g2", s) == base {
		t.Error("graph id not keyed")
	}
	if QueryKey("g1", Square()) == base {
		t.Error("sample structure not keyed")
	}
	// Variable names are documented as excluded: same structure, same key.
	named, err := NewSample(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if QueryKey("g1", named) != base {
		t.Error("sample variable names leaked into the key")
	}
}

// TestQueryKeyNormalizesDefaultReducers keys the k Plan resolves: an unset
// budget shares a cache entry with k≤0 and with the same k given
// explicitly, and a plan whose chosen k differs — here because the machine's
// GOMAXPROCS sets W — gets its own.
func TestQueryKeyNormalizesDefaultReducers(t *testing.T) {
	s := Triangle()
	if QueryKey("g", s) != QueryKey("g", s, WithTargetReducers(0)) {
		t.Error("k=0 and unset diverge")
	}
	pinned := []Option{WithPartitions(2)}
	if QueryKey("g", s, pinned...) != QueryKey("g", s, append(pinned, WithTargetReducers(64))...) {
		t.Error("the resolved k (32 × 2 reduce workers) and the same k given explicitly diverge")
	}
	if QueryKey("g", s, pinned...) == QueryKey("g", s, append(pinned, WithTargetReducers(65))...) {
		t.Error("another k did not change the key")
	}
	if want := fmt.Sprintf("|k=%d|", 32*runtime.GOMAXPROCS(0)); !strings.Contains(QueryKey("g", s), want) {
		t.Errorf("key %q does not hold the k GOMAXPROCS resolves (%s)", QueryKey("g", s), want)
	}
}
