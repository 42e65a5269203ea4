// Command bench is the repository's benchmark: six workloads measured end
// to end in a process each, and a traced run that breaks every workload
// down by layer. BENCHMARK.json names it; README.md says how to read it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed marks a run whose measurements completed but whose answers
// did not all match the oracle: the metrics are printed, the exit is 1.
var errFailed = errors.New("some operations failed or disagreed with the serial oracle")

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload in this process and end with one JSON line (default: all, a child process each)")
	seed := fs.Int64("seed", 1, "seed of every generated input and of the serve-mix schedule")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
	scaleName := fs.String("scale", "full", "input sizes: full or tiny")
	runs := fs.Int("runs", 1, "runs per workload, each on the next seed; above 1 the results hold the spread across runs")
	outDir := fs.String("out", "", "output directory (default: bench/out)")
	resultsPath := fs.String("results", "", "run record to write (default: <out>/results.json)")
	doCompare := fs.Bool("compare", false, "compare two run records: -compare base.json new.json")
	agree := fs.Bool("agree", false, "with -compare: the records are of one commit, so an improvement is a disagreement too")
	if err := fs.Parse(traceArgs(args)); err != nil {
		return err
	}

	sp, root, err := loadSpec()
	if err != nil {
		return err
	}
	if *doCompare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two run records, got %d arguments", fs.NArg())
		}
		held, err := compare(os.Stdout, sp, fs.Arg(0), fs.Arg(1), *agree)
		if err == nil && !held {
			err = fmt.Errorf("end-to-end metrics regressed, or spread beyond their bound")
		}
		return err
	}

	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs available: timings would measure the scheduler", procs, cpus)
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	e := &env{seed: *seed, scale: sc, seconds: *seconds, trace: *trace, outDir: *outDir}
	if *workload != "" {
		return runOne(*workload, e)
	}
	if *resultsPath == "" {
		*resultsPath = filepath.Join(*outDir, "results.json")
	}
	return runAll(sp, root, e, *runs, *resultsPath)
}

// traceArgs rewrites "--trace 0" and "--trace 1" to "--trace=0" and
// "--trace=1": the benchmark contract passes the boolean flag its value as
// a separate argument, which package flag would read as the first
// positional one.
func traceArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		arg := args[i]
		if (arg == "-trace" || arg == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				arg += "=" + args[i+1]
				i++
			}
		}
		out = append(out, arg)
	}
	return out
}

// runOne measures one workload in this process, prints every metric by
// name and ends standard output with the contract's JSON line.
func runOne(name string, e *env) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	spillDir, err := os.MkdirTemp(e.outDir, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)
	e.spillDir = spillDir
	rec, err := runWorkload(w, e)
	if err != nil {
		return err
	}
	if err := writeRecord(rec, e.outDir); err != nil {
		return err
	}
	printMetrics(os.Stdout, rec.Workload, rec.Metrics)
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "bench: failure:", f)
	}
	line, err := contractLine(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rec.Failed > 0 {
		return errFailed
	}
	return nil
}

// runAll runs every workload of BENCHMARK.json in a fresh child process
// per run, so peak RSS, allocation counts and GC state belong to that run
// alone, and folds the children's records into the run record.
func runAll(sp *spec, root string, e *env, runs int, resultsPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := results{
		Commit: commit(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: e.seed, Scale: e.scale.name, Seconds: e.seconds, Runs: runs, Trace: e.trace,
	}
	failed := false
	for _, w := range sp.Workloads {
		var recs []*record
		for r := 0; r < runs; r++ {
			rec := &record{Workload: w.Name, Trace: e.trace}
			os.Remove(rec.path(e.outDir)) // a stale record must not stand in for a crashed child
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(e.seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "-trace="+strconv.FormatBool(e.trace),
				"-scale", e.scale.name, "-out", e.outDir)
			cmd.Stderr = os.Stderr // the child's metric listing is dropped: its record carries them
			runErr := cmd.Run()
			if err := readJSON(rec.path(e.outDir), rec); err != nil {
				return fmt.Errorf("workload %s left no record (%v): %w", w.Name, runErr, err)
			}
			recs = append(recs, rec)
		}
		row := fold(w.Name, recs)
		printMetrics(os.Stdout, row.Workload, row.Metrics)
		fmt.Printf("%-18s %-40s %14d of %d\n", row.Workload, "failed", row.Failed, row.Attempted)
		failed = failed || row.Failed > 0
		res.Workloads = append(res.Workloads, row)
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultsPath, data, 0o644); err != nil {
		return err
	}
	fmt.Println("run record:", resultsPath)
	if failed {
		return errFailed
	}
	return nil
}

// commit names the measured commit when the tree is a git checkout.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
