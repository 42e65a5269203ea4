package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"subgraphmr"
)

var foundRe = regexp.MustCompile(`instances (?:found|counted): (\d+)`)

// runSGMR drives the CLI in-process and returns its full output.
func runSGMR(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("sgmr %s: %v\noutput:\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// foundCount extracts the reported instance count.
func foundCount(t *testing.T, output string) int {
	t.Helper()
	m := foundRe.FindStringSubmatch(output)
	if m == nil {
		t.Fatalf("no instance count in output:\n%s", output)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// graphArgs is the small shared corpus: big enough that every map-reduce
// strategy does real work, small enough for the serial oracle.
var graphArgs = []string{"-gen", "gnm", "-n", "60", "-m", "180", "-seed", "3"}

// TestStrategiesAgree runs every enumeration strategy flag on the same
// graph and sample and checks they all report the serial oracle's count.
func TestStrategiesAgree(t *testing.T) {
	for _, sample := range []string{"triangle", "square"} {
		want := foundCount(t, runSGMR(t, append([]string{"-sample", sample, "-strategy", "serial"}, graphArgs...)...))
		for _, strategy := range []string{"bucket", "variable", "cq", "mr-decompose", "serial-decompose", "serial-degree"} {
			out := runSGMR(t, append([]string{"-sample", sample, "-strategy", strategy, "-k", "64"}, graphArgs...)...)
			if got := foundCount(t, out); got != want {
				t.Errorf("%s/%s: %d instances, serial found %d\n%s", sample, strategy, got, want, out)
			}
		}
	}
}

// TestMemoryBudgetFlag checks -mem-budget and -spill-dir: same counts on
// every strategy; the cascade's spill report line proves its external
// shuffle engaged, and the block strategies, which never spill, print none.
func TestMemoryBudgetFlag(t *testing.T) {
	want := foundCount(t, runSGMR(t, append([]string{"-strategy", "serial"}, graphArgs...)...))
	for _, strategy := range []string{"cascade", "bucket", "variable", "cq", "mr-decompose"} {
		out := runSGMR(t, append([]string{"-strategy", strategy, "-k", "64",
			"-mem-budget", "4096", "-spill-dir", t.TempDir()}, graphArgs...)...)
		if got := foundCount(t, out); got != want {
			t.Errorf("%s under -mem-budget: %d instances, want %d\n%s", strategy, got, want, out)
		}
		if spilled := strings.Contains(out, "external shuffle: spilled="); spilled != (strategy == "cascade") {
			t.Errorf("%s under -mem-budget 4096 reported spilling: %v\n%s", strategy, spilled, out)
		}
	}
}

// TestCascadeAndBaselines smoke-tests the remaining strategies: the
// two-round cascade (TestMemoryBudgetFlag runs it under a budget) and the
// doulion estimator.
func TestCascadeAndBaselines(t *testing.T) {
	want := foundCount(t, runSGMR(t, append([]string{"-strategy", "serial"}, graphArgs...)...))
	out := runSGMR(t, append([]string{"-strategy", "cascade"}, graphArgs...)...)
	if got := foundCount(t, out); got != want {
		t.Errorf("cascade: %d triangles, serial found %d", got, want)
	}
	out = runSGMR(t, append([]string{"-strategy", "doulion"}, graphArgs...)...)
	if !strings.Contains(out, "estimated triangles:") {
		t.Errorf("doulion printed no estimate:\n%s", out)
	}
}

// TestCountOnlyAndPrint covers -count and -print output shapes.
func TestCountOnlyAndPrint(t *testing.T) {
	want := foundCount(t, runSGMR(t, append([]string{"-strategy", "serial"}, graphArgs...)...))
	for _, strategy := range []string{"bucket", "serial", "serial-decompose"} {
		out := runSGMR(t, append([]string{"-strategy", strategy, "-k", "64", "-count"}, graphArgs...)...)
		if got := foundCount(t, out); got != want {
			t.Errorf("%s -count: %d instances, want %d", strategy, got, want)
		}
	}
	out := runSGMR(t, append([]string{"-strategy", "bucket", "-k", "64", "-print"}, graphArgs...)...)
	if n := len(regexp.MustCompile(`(?m)^X=\d+ Y=\d+ Z=\d+$`).FindAllString(out, -1)); n != want {
		t.Errorf("-print listed %d assignments, want %d\n%s", n, want, out)
	}
}

// TestDataFileRoundTrip feeds a graph through -data instead of a generator.
func TestDataFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	var sb strings.Builder
	sb.WriteString("# nodes 5\n")
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}} {
		fmt.Fprintf(&sb, "%d %d\n", e[0], e[1])
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSGMR(t, "-data", path, "-strategy", "bucket", "-k", "16")
	if got := foundCount(t, out); got != 2 {
		t.Errorf("two triangles in the file, strategy found %d\n%s", got, out)
	}
}

// TestAutoStrategyAgrees checks -strategy auto (planner-chosen) and the
// explicit triangle algorithm flags report the oracle's count.
func TestAutoStrategyAgrees(t *testing.T) {
	want := foundCount(t, runSGMR(t, append([]string{"-strategy", "serial"}, graphArgs...)...))
	for _, strategy := range []string{"auto", "tri-partition", "tri-multiway", "tri-bucket"} {
		out := runSGMR(t, append([]string{"-strategy", strategy, "-k", "64"}, graphArgs...)...)
		if got := foundCount(t, out); got != want {
			t.Errorf("%s: %d instances, serial found %d\n%s", strategy, got, want, out)
		}
	}
}

// TestExplainFlag checks -explain prints the plan and candidate table
// without executing the job.
func TestExplainFlag(t *testing.T) {
	out := runSGMR(t, append([]string{"-sample", "triangle", "-strategy", "auto", "-explain"}, graphArgs...)...)
	for _, want := range []string{"plan:", "candidates:", "pairs/edge", "bucket-oriented"} {
		if !strings.Contains(out, want) {
			t.Errorf("-explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "instances found") {
		t.Errorf("-explain executed the job:\n%s", out)
	}
	// -explain is planner-only: serial strategies must reject it.
	var sink strings.Builder
	if err := run(append([]string{"-strategy", "serial", "-explain"}, graphArgs...), &sink); err == nil {
		t.Error("-explain with -strategy serial: expected an error")
	}
}

// sgmrJSON is the subset of the -json document the tests inspect.
type sgmrJSON struct {
	Graph struct {
		Nodes, Edges int
	}
	Sample string
	Plan   *struct {
		Strategy string
		Chosen   struct {
			Strategy    string
			Buckets     int
			Shares      []int
			CommPerEdge float64
			EstComm     int64
		}
		Candidates []struct {
			Strategy string
			Viable   bool
		}
		NumCQs int
	}
	Result *struct {
		Count     int64
		TotalComm int64
		Jobs      []struct {
			Label  string
			Shares []int
		}
	}
	Instances [][]int
}

// TestJSONFlag checks -json emits a parseable plan + result document that
// agrees with the serial oracle.
func TestJSONFlag(t *testing.T) {
	want := foundCount(t, runSGMR(t, append([]string{"-strategy", "serial"}, graphArgs...)...))
	out := runSGMR(t, append([]string{"-strategy", "auto", "-json"}, graphArgs...)...)
	var doc sgmrJSON
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if doc.Plan == nil || doc.Result == nil {
		t.Fatalf("-json output missing plan or result:\n%s", out)
	}
	if doc.Result.Count != int64(want) {
		t.Errorf("-json count %d, serial found %d", doc.Result.Count, want)
	}
	if doc.Plan.Strategy == "" || doc.Plan.Strategy == "auto" {
		t.Errorf("-json plan strategy %q: auto must resolve to a concrete strategy", doc.Plan.Strategy)
	}
	if len(doc.Plan.Candidates) == 0 {
		t.Error("-json plan lists no candidates")
	}
	if len(doc.Result.Jobs) == 0 {
		t.Error("-json result lists no jobs")
	}

	// -explain -json: plan only, no result.
	out = runSGMR(t, append([]string{"-strategy", "auto", "-json", "-explain"}, graphArgs...)...)
	doc = sgmrJSON{}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-explain -json output does not parse: %v\n%s", err, out)
	}
	if doc.Plan == nil || doc.Result != nil {
		t.Errorf("-explain -json should carry a plan and no result:\n%s", out)
	}

	// -json -print includes the instance list.
	out = runSGMR(t, append([]string{"-strategy", "bucket", "-k", "64", "-json", "-print"}, graphArgs...)...)
	doc = sgmrJSON{}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json -print output does not parse: %v\n%s", err, out)
	}
	if len(doc.Instances) != want {
		t.Errorf("-json -print listed %d instances, want %d", len(doc.Instances), want)
	}
}

// TestAdaptiveFlag drives -adaptive end to end: the count still matches
// the oracle across strategies (including the mid-query re-planning paths),
// and -adaptive -explain prints the probe table.
func TestAdaptiveFlag(t *testing.T) {
	want := foundCount(t, runSGMR(t, append([]string{"-strategy", "serial"}, graphArgs...)...))
	for _, strategy := range []string{"auto", "bucket", "variable", "cq", "cascade"} {
		out := runSGMR(t, append([]string{"-strategy", strategy, "-k", "64", "-adaptive"}, graphArgs...)...)
		if got := foundCount(t, out); got != want {
			t.Errorf("%s -adaptive: %d instances, serial found %d\n%s", strategy, got, want, out)
		}
	}
	// A breach-everything threshold must still agree (forces the replans).
	out := runSGMR(t, append([]string{"-strategy", "cq", "-k", "64", "-adaptive", "-skew-threshold", "1.01"}, graphArgs...)...)
	if got := foundCount(t, out); got != want {
		t.Errorf("cq -adaptive -skew-threshold 1.01: %d instances, want %d\n%s", got, want, out)
	}

	out = runSGMR(t, append([]string{"-strategy", "auto", "-adaptive", "-explain"}, graphArgs...)...)
	for _, wantStr := range []string{"probes (adaptive", "maxload=", "skew=", "adjusted="} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("-adaptive -explain output missing %q:\n%s", wantStr, out)
		}
	}
	if strings.Contains(out, "instances found") {
		t.Errorf("-adaptive -explain executed the job:\n%s", out)
	}
}

// TestStrategyFlagIsTheTable: -strategy accepts exactly the library's
// strategy table (plus this command's serial baselines), and both the help
// text and the rejection of anything else are generated from it.
func TestStrategyFlagIsTheTable(t *testing.T) {
	for _, name := range subgraphmr.StrategyNames() {
		out := runSGMR(t, append([]string{"-strategy", name, "-k", "64", "-explain"}, graphArgs...)...)
		want, err := subgraphmr.ParseStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		if want != subgraphmr.StrategyAuto && !strings.Contains(out, "plan: "+want.String()+"\n") {
			t.Errorf("-strategy %s planned something else:\n%s", name, out)
		}
	}
	var out strings.Builder
	err := run(append([]string{"-strategy", "bucket-oriented"}, graphArgs...), &out)
	if err == nil {
		t.Fatal("-strategy accepted a display name")
	}
	usage := flagUsage(t, "strategy")
	for _, name := range subgraphmr.StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("rejection %q does not list %q", err, name)
		}
		if !strings.Contains(usage, name) {
			t.Errorf("-strategy help %q does not list %q", usage, name)
		}
	}
}

// flagUsage returns the help text `sgmr -h` prints for one flag.
func flagUsage(t *testing.T, name string) string {
	t.Helper()
	stderr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := run([]string{"-h"}, io.Discard)
	os.Stderr = stderr
	w.Close()
	help, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("sgmr -h: %v", runErr)
	}
	_, rest, ok := strings.Cut(string(help), "  -"+name+" ")
	if !ok {
		t.Fatalf("no -%s in the help text:\n%s", name, help)
	}
	usage, _, _ := strings.Cut(rest, "\n  -")
	return usage
}

// TestBadFlags checks error paths exit through run's error return.
func TestBadFlags(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-sample", "no-such-sample"},
		{"-strategy", "no-such-strategy"},
		{"-gen", "no-such-gen"},
		{"-strategy", "cascade", "-sample", "square"},
		{"-data", filepath.Join(t.TempDir(), "missing.txt")},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("sgmr %s: expected an error", strings.Join(args, " "))
		}
	}
}

// TestProfileFlags: -cpuprofile/-memprofile write non-empty pprof files on
// exit, and profiling does not disturb the reported result.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	args := append([]string{"-sample", "triangle", "-strategy", "bucket", "-k", "64",
		"-cpuprofile", cpu, "-memprofile", mem}, graphArgs...)
	out := runSGMR(t, args...)
	want := foundCount(t, runSGMR(t, append([]string{"-sample", "triangle", "-strategy", "serial"}, graphArgs...)...))
	if got := foundCount(t, out); got != want {
		t.Fatalf("profiled run found %d instances, want %d", got, want)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestProfileFlagBadPath: an uncreatable profile path is a clean error, not
// a panic.
func TestProfileFlagBadPath(t *testing.T) {
	var out strings.Builder
	err := run(append([]string{"-sample", "triangle", "-cpuprofile",
		filepath.Join(t.TempDir(), "missing-dir", "cpu.pprof")}, graphArgs...), &out)
	if err == nil || !strings.Contains(err.Error(), "cpu profile") {
		t.Fatalf("expected cpu profile error, got %v", err)
	}
}
