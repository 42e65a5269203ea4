package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the one place workload names, metric names,
// units, directions and bounds are declared.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or, when the
// harness is started inside bench/, from its parent; it returns the
// directory it was found in.
func loadSpec() (*spec, string, error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("parsing BENCHMARK.json: %w", err)
		}
		return &s, root, nil
	}
	return nil, "", firstErr
}

func (s *spec) metric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// workloadResult is one workload's row of results.json. With one run per
// workload its stats are the run's own samples; with several, each stat
// summarises the runs' medians, which is what the bounds are set against.
type workloadResult struct {
	Workload   string          `json:"workload"`
	Iterations []int           `json:"iterations"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Failures   []string        `json:"failures,omitempty"`
	Metrics    map[string]stat `json:"metrics"`
}

// results is bench/out/results.json: the run record.
type results struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Scale      string           `json:"scale"`
	Seconds    float64          `json:"seconds"`
	Runs       int              `json:"runs"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadResult `json:"workloads"`
}

// fold merges the records of one workload's runs into its results row.
func fold(workload string, recs []*record) workloadResult {
	out := workloadResult{Workload: workload, Metrics: map[string]stat{}}
	values := map[string][]float64{}
	for _, r := range recs {
		out.Iterations = append(out.Iterations, r.Iterations)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Failures = append(out.Failures, r.Failures...)
		for name, st := range r.Metrics {
			values[name] = append(values[name], st.Median)
			out.Metrics[name] = st
		}
	}
	if len(recs) > 1 {
		for name, vs := range values {
			out.Metrics[name] = summarize(out.Metrics[name].Unit, vs)
		}
	}
	return out
}

func sortedNames(metrics map[string]stat) []string {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printMetrics lists every metric by name with its unit, median,
// quartiles and sample count.
func printMetrics(w io.Writer, workload string, metrics map[string]stat) {
	for _, name := range sortedNames(metrics) {
		st := metrics[name]
		fmt.Fprintf(w, "%-18s %-40s %14.6g %-10s [q1 %.6g, q3 %.6g, n %d]\n",
			workload, name, st.Median, st.Unit, st.Q1, st.Q3, st.N)
	}
}

// contractLine is the one JSON object a single-workload run ends with.
func contractLine(rec *record) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, st := range rec.Metrics {
		metrics[name] = value{st.Median, st.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// verdict classifies one end-to-end metric between a baseline and a
// candidate. A spread wider than the bound on either side means the
// medians cannot resolve a change of that size: unresolved, never
// unchanged.
func verdict(m metricSpec, old, cur stat) string {
	if m.Bound == nil {
		return "-"
	}
	bound := *m.Bound
	if old.spread() > bound || cur.spread() > bound {
		return "unresolved"
	}
	if relDelta(old.Median, cur.Median) <= bound {
		return "unchanged"
	}
	if (cur.Median < old.Median) == (m.Better == "lower") {
		return "improved"
	}
	return "regressed"
}

// compare prints, per workload and metric, both medians with quartiles,
// the ratio against its base and a verdict. It reports whether every
// end-to-end metric held: nothing regressed or unresolved, and with
// agree set (two sets of one commit) nothing "improved" either.
func compare(w io.Writer, s *spec, oldPath, newPath string, agree bool) (bool, error) {
	var old, cur results
	if err := readJSON(oldPath, &old); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &cur); err != nil {
		return false, err
	}
	baseline := map[string]workloadResult{}
	for _, wr := range old.Workloads {
		baseline[wr.Workload] = wr
	}
	fmt.Fprintf(w, "base %s (%s, %d runs) vs new %s (%s, %d runs); ratio is new/base\n",
		oldPath, old.Commit, old.Runs, newPath, cur.Commit, cur.Runs)
	// The quartiles of a single run describe its samples, not how far its
	// median would move on a rerun, so nothing can be resolved from them.
	resolvable := old.Runs > 1 && cur.Runs > 1
	if !resolvable {
		fmt.Fprintln(w, "a record holds a single run per workload: spread across runs unknown, every bounded metric is unresolved (use -runs)")
	}
	held := true
	for _, wr := range cur.Workloads {
		base, ok := baseline[wr.Workload]
		if !ok {
			continue
		}
		for _, name := range sortedNames(wr.Metrics) {
			o, ok := base.Metrics[name]
			m, known := s.metric(name)
			if !ok || !known {
				continue
			}
			c := wr.Metrics[name]
			v := verdict(m, o, c)
			if !resolvable && m.Bound != nil {
				v = "unresolved"
			}
			if v == "regressed" || v == "unresolved" || (agree && v == "improved") {
				held = false
			}
			fmt.Fprintf(w, "%-18s %-38s %-10s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  ratio %.4f of base %.6g  %s\n",
				wr.Workload, name, c.Unit, o.Median, o.Q1, o.Q3, c.Median, c.Q1, c.Q3, c.Median/o.Median, o.Median, v)
		}
		if wr.Failed > base.Failed {
			held = false
			fmt.Fprintf(w, "%-18s failed %d of %d (base %d of %d)  regressed\n", wr.Workload, wr.Failed, wr.Attempted, base.Failed, base.Attempted)
		}
	}
	return held, nil
}
