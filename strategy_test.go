package subgraphmr

import (
	"reflect"
	"strings"
	"testing"
)

// TestStrategyTable pins the one strategy table: every PlanStrategy
// constant has exactly one row, the planner order is the literal list below
// (it is behaviour — Auto breaks cost ties toward the earlier row), the
// short names round-trip through ParseStrategy, and Section 2.3's triangle
// algorithm is an alias of the bucket-oriented row, its old value 8 retired.
func TestStrategyTable(t *testing.T) {
	wantOrder := []PlanStrategy{
		StrategyBucketOriented,
		StrategyVariableOriented,
		StrategyCQOriented,
		StrategyDecomposed,
		StrategyTrianglePartition,
		StrategyTriangleMultiway,
		StrategyTwoRound,
	}
	var order []PlanStrategy
	for _, def := range strategies {
		order = append(order, def.id)
	}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Errorf("table order %v, want %v", order, wantOrder)
	}

	// The constants are wire format (distrib.JobRequest.Strategy) and
	// cache-key format (QueryKey's strategy=%d): the values never move, and
	// every one of them but Auto has exactly one row. Value 8 is retired.
	wantValues := map[PlanStrategy]int{
		StrategyAuto: 0, StrategyBucketOriented: 1, StrategyVariableOriented: 2,
		StrategyCQOriented: 3, StrategyDecomposed: 4, StrategyTwoRound: 5,
		StrategyTrianglePartition: 6, StrategyTriangleMultiway: 7,
	}
	for st, v := range wantValues {
		if int(st) != v {
			t.Errorf("%v has value %d, want %d", st, int(st), v)
		}
		rows := 0
		for _, def := range strategies {
			if def.id == st {
				rows++
			}
		}
		want := 1
		if st == StrategyAuto {
			want = 0
		}
		if rows != want {
			t.Errorf("%v has %d table rows, want %d", st, rows, want)
		}
	}
	if len(strategies) != 7 || len(strategies) != len(wantValues)-1 {
		t.Errorf("table has %d rows for %d strategies, want 7", len(strategies), len(wantValues)-1)
	}
	const retired = PlanStrategy(8)
	if retired.def() != nil || retired.String() != "strategy(8)" {
		t.Errorf("retired value 8 has a row or a name: %q", retired.String())
	}
	if StrategyTriangleBucketOrdered != StrategyBucketOriented {
		t.Errorf("StrategyTriangleBucketOrdered = %d, want the bucket-oriented alias %d",
			int(StrategyTriangleBucketOrdered), int(StrategyBucketOriented))
	}
	if st, err := ParseStrategy("tri-bucket"); err != nil || st != StrategyBucketOriented {
		t.Errorf(`ParseStrategy("tri-bucket") = %v, %v; want %v`, st, err, StrategyBucketOriented)
	}

	names := StrategyNames()
	if len(names) != len(strategies)+1 || names[0] != "auto" {
		t.Fatalf("StrategyNames() = %v", names)
	}
	seen := map[string]bool{}
	for i, def := range strategies {
		if def.flag != names[i+1] {
			t.Errorf("StrategyNames()[%d] = %q, row says %q", i+1, names[i+1], def.flag)
		}
		if seen[def.flag] || seen[def.name] || def.flag == "" || def.name == "" {
			t.Errorf("row %v: names %q/%q empty or reused", def.id, def.name, def.flag)
		}
		seen[def.flag], seen[def.name] = true, true
		got, err := ParseStrategy(def.flag)
		if err != nil || got != def.id {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", def.flag, got, err, def.id)
		}
		if def.id.String() != def.name {
			t.Errorf("%d.String() = %q, want %q", int(def.id), def.id.String(), def.name)
		}
		if def.price == nil || def.probe == nil || def.run == nil {
			t.Errorf("row %v is missing a function", def.id)
		}
	}
	if st, err := ParseStrategy("auto"); err != nil || st != StrategyAuto || StrategyAuto.String() != "auto" {
		t.Errorf("auto does not round-trip: %v, %v", st, err)
	}
	// Display names are not part of the short-name vocabulary, and the
	// rejection spells the vocabulary out.
	_, err := ParseStrategy("bucket-oriented")
	if err == nil {
		t.Fatal("ParseStrategy accepted a display name")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseStrategy's error %q does not list %q", err, name)
		}
	}
	if got := PlanStrategy(99).String(); got != "strategy(99)" {
		t.Errorf("unknown strategy prints %q", got)
	}

	// Plan lists its candidates in table order, whatever is viable.
	for _, s := range []*Sample{Triangle(), Square()} {
		plan := mustPlan(t, Gnm(40, 100, 1), s)
		var cands []PlanStrategy
		for _, c := range plan.Candidates {
			cands = append(cands, c.Strategy)
		}
		if !reflect.DeepEqual(cands, wantOrder) {
			t.Errorf("%v: candidates %v, want %v", s, cands, wantOrder)
		}
	}
	// A plan whose strategy has no row cannot run.
	if _, err := Run(t.Context(), &QueryPlan{Strategy: 99, graph: Gnm(4, 3, 1), sample: Triangle()}); err == nil {
		t.Error("Run accepted a strategy without a table row")
	}
}
