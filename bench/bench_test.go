package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"subgraphmr"
)

func tinyEnv(t *testing.T, seed int64, trace bool) *env {
	t.Helper()
	dir := t.TempDir()
	return &env{seed: seed, scale: scales["tiny"], seconds: 0.02, trace: trace, outDir: dir, spillDir: dir}
}

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSmoke runs all six workloads, untraced and traced, at the tiny
// scale and holds what they emit to BENCHMARK.json: every declared metric
// exactly once with its unit, nothing undeclared.
func TestSmoke(t *testing.T) {
	sp := mustSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(sp.Workloads) > 8 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; limits are 8, 16 and 128",
			len(sp.Workloads), len(sp.EndToEnd), len(sp.PerLayer))
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, sp.Workloads[i].Name, w.name)
		}
	}
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
			}
		}
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			e := tinyEnv(t, 1, trace)
			rec, err := runWorkload(w, e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: failed %d of %d: %v", w.name, trace, rec.Failed, rec.Attempted, rec.Failures)
			}
			declared := sp.EndToEnd
			if trace {
				declared = sp.PerLayer
			}
			for _, m := range declared {
				st, ok := rec.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not emitted", w.name, trace, m.Name)
				} else if st.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, st.Unit, m.Unit)
				}
			}
			if len(rec.Metrics) != len(declared) {
				for name := range rec.Metrics {
					if _, ok := sp.metric(name); !ok {
						t.Errorf("%s trace=%v: emitted metric %s is not in BENCHMARK.json", w.name, trace, name)
					}
				}
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json declares %d", w.name, trace, len(rec.Metrics), len(declared))
			}
			checkContractLine(t, rec)
			if trace {
				checkTrace(t, filepath.Join(e.outDir, "trace-"+w.name+".json"))
			}
		}
	}
}

func checkContractLine(t *testing.T, rec *record) {
	t.Helper()
	line, err := contractLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[key]; !ok {
			t.Errorf("contract line lacks %q: %s", key, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("contract line has %d keys, want exactly 4: %s", len(got), line)
	}
}

// checkTrace holds a written trace to its invariants: it parses, every
// span is a root or names a parent in the file, no span ends before it
// starts, and no self time is negative.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	var tf struct {
		Spans []span `json:"spans"`
	}
	if err := readJSON(path, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s has no spans", path)
	}
	for _, s := range tf.Spans {
		if s.Parent < 0 || s.Parent > len(tf.Spans) || s.Parent == s.ID {
			t.Errorf("%s: span %d (%s) has parent %d, neither a root nor a span of the file", path, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start || s.Self < 0 {
			t.Errorf("%s: span %d (%s) runs %g..%g with self time %g", path, s.ID, s.Name, s.Start, s.End, s.Self)
		}
	}
}

// TestWrongOracleFails hands a workload an oracle that is off by one:
// every iteration must count as failed and the process must exit non-zero
// (runOne's error is what main turns into exit code 1).
func TestWrongOracleFails(t *testing.T) {
	e := tinyEnv(t, 1, false)
	e.oracleSkew = 1
	err := runOne("tri-uniform", e)
	if !errors.Is(err, errFailed) {
		t.Fatalf("runOne with a wrong oracle returned %v, want errFailed", err)
	}
	rec := &record{Workload: "tri-uniform"}
	if err := readJSON(rec.path(e.outDir), rec); err != nil {
		t.Fatal(err)
	}
	if rec.Iterations < 1 || rec.Failed < rec.Iterations {
		t.Errorf("%d iterations against a wrong oracle, only %d failures", rec.Iterations, rec.Failed)
	}
}

// fingerprint is everything about a workload's inputs and answers that a
// seed must fix.
type fingerprint struct {
	edges    [][]subgraphmr.Edge
	schedule []int
	counts   []int64
	pairs    []int64
}

func takeFingerprint(t *testing.T, w workload, seed int64) fingerprint {
	t.Helper()
	b, err := w.setup(tinyEnv(t, seed, false))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	var fp fingerprint
	if b.serve != nil {
		fp.schedule = b.serve.schedule
	}
	for _, q := range b.queries {
		fp.edges = append(fp.edges, q.g.Edges())
		count, _, err := oracle(q.g, q.s)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := subgraphmr.Plan(q.g, q.s, append([]subgraphmr.Option{subgraphmr.WithCountOnly()}, q.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := subgraphmr.Run(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != count {
			t.Errorf("%s: run counted %d, oracle %d", w.name, res.Count, count)
		}
		fp.counts = append(fp.counts, count)
		fp.pairs = append(fp.pairs, res.TotalComm())
	}
	return fp
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, again, other := takeFingerprint(t, w, 5), takeFingerprint(t, w, 5), takeFingerprint(t, w, 6)
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: seed 5 twice gave different graphs, schedule, counts or communication", w.name)
		}
		if reflect.DeepEqual(a.edges, other.edges) {
			t.Errorf("%s: seeds 5 and 6 gave the same graphs", w.name)
		}
		if w.name == "serve-mix" && reflect.DeepEqual(a.schedule, other.schedule) {
			t.Errorf("serve-mix: seeds 5 and 6 gave the same schedule")
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.10
	lower := metricSpec{Name: "query_s", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: &bound}
	tight := func(median float64) stat { return stat{Median: median, Q1: median * 0.99, Q3: median * 1.01, N: 10} }
	wide := stat{Median: 1, Q1: 0.9, Q3: 1.1, N: 10}
	for _, c := range []struct {
		m        metricSpec
		old, cur stat
		want     string
	}{
		{lower, tight(1), tight(1.05), "unchanged"},
		{lower, tight(1), tight(1.2), "regressed"},
		{lower, tight(1), tight(0.8), "improved"},
		{higher, tight(1), tight(0.8), "regressed"},
		{higher, tight(1), tight(1.2), "improved"},
		{lower, tight(1), wide, "unresolved"},
		{metricSpec{Name: "graph.build_s", Better: "lower"}, tight(1), tight(2), "-"},
	} {
		if got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("verdict(%s, %g → %g) = %s, want %s", c.m.Name, c.old.Median, c.cur.Median, got, c.want)
		}
	}
	if relDelta(1, 1.25) != relDelta(1.25, 1) || relDelta(1, 1.25) != 0.25 {
		t.Errorf("relDelta is not symmetric against the smaller side: %g, %g", relDelta(1, 1.25), relDelta(1.25, 1))
	}
}

func TestTraceArgs(t *testing.T) {
	got := traceArgs([]string{"--workload", "tri-skew", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "tri-skew", "--trace=1", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traceArgs = %q, want %q", got, want)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "b", Start: 4, End: 7}, // overlaps a: the union 1..7 is covered
		{ID: 4, Parent: 3, Name: "c", Start: 4, End: 6},
	}}
	want := []float64{4, 4, 1, 2}
	for i, s := range tr.finish() {
		if s.Self != want[i] {
			t.Errorf("span %s: self %g, want %g", s.Name, s.Self, want[i])
		}
	}
}

func TestHygieneReportsLeftovers(t *testing.T) {
	e := tinyEnv(t, 1, false)
	if err := os.WriteFile(filepath.Join(e.spillDir, "sgmr-spill-left.run"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := &record{}
	checkHygiene(e, rec, 1<<30, 0)
	if rec.Failed != 1 {
		t.Errorf("a leftover spill file gave %d failures, want 1: %v", rec.Failed, rec.Failures)
	}
	rec = &record{}
	checkHygiene(tinyEnv(t, 1, false), rec, 0, 0)
	if rec.Failed != 1 {
		t.Errorf("goroutines above a baseline of 0 gave %d failures, want 1: %v", rec.Failed, rec.Failures)
	}
}
