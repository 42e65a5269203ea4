// Command sgmr enumerates instances of a sample graph in a data graph
// using the paper's single-round map-reduce algorithms.
//
// Usage:
//
//	sgmr -sample triangle -gen gnm -n 1000 -m 5000 [-strategy auto] [-k 64]
//	sgmr -sample lollipop -data graph.txt -strategy variable -k 500 -print
//	sgmr -sample triangle -gen powerlaw -n 100000 -strategy cascade -mem-budget 268435456
//	sgmr -sample c5 -explain            # print the plan without running it
//	sgmr -sample triangle -json         # machine-readable plan + result
//	sgmr -gen ba -strategy auto -adaptive -explain
//	                                    # probe reducer loads, show the table
//
// The data graph comes from -data (edge-list file; "-" for stdin) or from
// a generator (-gen gnm|gnp|powerlaw|cycle|complete|grid|tree with -n, -m,
// -p, -delta, -depth, -seed). Map-reduce strategies run through the
// cost-based planner (-strategy auto picks the cheapest); -explain prints
// the chosen plan and the full candidate cost table without running it,
// and -json emits the plan and result as JSON. -adaptive makes the planner
// probe each candidate's actual reducer loads with map-only passes and
// rank by the skew-adjusted cost (with -explain, the probe table is
// printed); at run time it also re-plans multi-job executions mid-query
// when observed skew exceeds -skew-threshold. Statistics (communication
// cost, reducers, skew, reducer work) are always printed; -print also
// lists instances. -mem-budget bounds the cascade's reduce workers'
// memory: above it the engine spills sorted runs to disk and merge-streams
// them into the reducers (the other strategies store each edge once and
// never spill). -cpuprofile and -memprofile write standard pprof files on
// exit, for profiling enumeration runs.
//
// Distributed execution (multi-process):
//
//	sgmr -serve-worker -listen 127.0.0.1:7001      # worker process
//	sgmr -sample triangle -dist-workers 127.0.0.1:7001,127.0.0.1:7002
//	sgmr -sample triangle -distributed 3           # spawn 3 local workers
//	sgmr -sample triangle -distributed 3 -fault kill   # CI fault pass
//
// -serve-worker turns the process into a worker serving jobs until
// interrupted. -dist-workers distributes execution across running workers;
// -distributed n spawns n local worker processes instead. -fault injects a
// worker failure (kill, drop, stall) into a distributed run so retry and
// degradation paths can be exercised from the command line; the summary
// line reports the retried partition count.
//
// Resident query service:
//
//	sgmr serve -load social=graph.txt -load rnd=gnm:10000:50000:7
//
// `sgmr serve` loads the named graphs once and answers enumeration
// queries over HTTP (GET /query, /metrics, /graphs, /healthz) through a
// prepared-plan cache and admission control; see the internal/serve
// package and the flags of `sgmr serve -h`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"subgraphmr"
	"subgraphmr/internal/approx"
	"subgraphmr/internal/serial"
)

// errUsage signals a flag-parse failure the FlagSet already reported, so
// main exits without printing it a second time.
var errUsage = errors.New("usage")

func main() {
	// A process re-executed by -distributed n serves jobs instead of
	// parsing flags; MaybeWorkerProcess returns true once the parent shuts
	// it down.
	if subgraphmr.MaybeWorkerProcess() {
		return
	}
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp): // -h/-help: usage printed, success
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "sgmr: %v\n", err)
		os.Exit(1)
	}
}

// strategyNames is the -strategy vocabulary: the map-reduce strategies that
// run through the unified Plan/Run API (the library's strategy table), then
// the serial and probabilistic baselines this command adds. tri-bucket, an
// alias of bucket, is accepted too.
var strategyNames = strings.Join(subgraphmr.StrategyNames(), ", ") + ", serial, serial-decompose, serial-degree, doulion (triangles); tri-bucket = bucket"

// run executes one sgmr invocation, writing all reporting to out. It is
// main minus the process plumbing, so tests can drive every strategy flag
// in-process.
func run(args []string, out io.Writer) error {
	// Subcommand dispatch: `sgmr serve` is the resident query service.
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], out)
	}
	fs := flag.NewFlagSet("sgmr", flag.ContinueOnError)
	var (
		sampleName = fs.String("sample", "triangle", "sample graph: triangle, square, lollipop, c3..c12, k2..k8, path2..8, star2..8, q3")
		dataFile   = fs.String("data", "", "data graph edge-list file (\"-\" for stdin); overrides -gen")
		gen        = fs.String("gen", "gnm", "generator: gnm, gnp, powerlaw, cycle, complete, grid, tree")
		n          = fs.Int("n", 300, "nodes for generators")
		m          = fs.Int("m", 1500, "edges for gnm")
		prob       = fs.Float64("p", 0.05, "edge probability for gnp / power-law exponent offset")
		avgDeg     = fs.Float64("avgdeg", 8, "average degree for powerlaw")
		exponent   = fs.Float64("exponent", 2.3, "power-law exponent")
		delta      = fs.Int("delta", 4, "degree for tree generator")
		depth      = fs.Int("depth", 5, "depth for tree generator")
		rows       = fs.Int("rows", 20, "rows for grid generator")
		cols       = fs.Int("cols", 20, "cols for grid generator")
		genSeed    = fs.Int64("seed", 1, "generator seed")
		strategy   = fs.String("strategy", "bucket", "strategy: "+strategyNames)
		k          = fs.Int("k", 0, "target reducers (share-based strategies) / bucket budget (0 = the planner chooses: 32 × reduce workers)")
		buckets    = fs.Int("b", 0, "bucket count override for the bucket strategies")
		countOnly  = fs.Bool("count", false, "count instances without materializing them")
		hashSeed   = fs.Uint64("hashseed", 7, "bucket hash seed")
		doulionQ   = fs.Float64("q", 0.25, "edge keep probability for the doulion strategy")
		trials     = fs.Int("trials", 8, "trials for the doulion strategy")
		printAll   = fs.Bool("print", false, "print every instance")
		workers    = fs.Int("workers", 0, "map worker goroutines (0 = GOMAXPROCS)")
		partitions = fs.Int("partitions", 0, "shuffle partitions / reduce workers (0 = workers)")
		memBudget  = fs.Int64("mem-budget", 0, "the cascade's reduce-memory budget in bytes; exceeding it spills sorted runs to disk (0 = unlimited; other strategies never spill)")
		spillDir   = fs.String("spill-dir", "", "directory for spill run files (default: system temp dir)")
		adaptive   = fs.Bool("adaptive", false, "probe reducer loads before planning and re-plan mid-query on observed skew")
		skewThresh = fs.Float64("skew-threshold", 0, "observed max/mean load ratio that triggers mid-query re-planning (0 = default 4)")
		serveFlag  = fs.Bool("serve-worker", false, "serve as a distributed worker process on -listen and never enumerate locally")
		listenAddr = fs.String("listen", "127.0.0.1:0", "listen address for -serve-worker")
		distAddrs  = fs.String("dist-workers", "", "comma-separated worker addresses (started with -serve-worker) to distribute execution across")
		distSpawn  = fs.Int("distributed", 0, "spawn this many local worker processes and distribute execution across them")
		faultFlag  = fs.String("fault", "", "inject a worker failure into a distributed run: kill, drop or stall (testing/CI)")
		failpoints = fs.String("failpoints", "", "arm fault-injection sites as site=mode[*count][;...] (modes: error, enospc, panic, delay:DUR, corrupt; also via the SGMR_FAILPOINTS env var)")
		explain    = fs.Bool("explain", false, "print the chosen plan and candidate costs without running")
		jsonOut    = fs.Bool("json", false, "emit the plan and result as JSON")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if *failpoints != "" {
		if err := subgraphmr.EnableFailpoints(*failpoints); err != nil {
			return err
		}
	}

	if *serveFlag {
		return serveWorkerCmd(*listenAddr, out)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	s := subgraphmr.NamedSample(*sampleName)
	if s == nil {
		return fmt.Errorf("unknown sample %q", *sampleName)
	}
	g, err := loadGraph(*dataFile, *gen, *n, *m, *prob, *avgDeg, *exponent, *delta, *depth, *rows, *cols, *genSeed)
	if err != nil {
		return fmt.Errorf("loading data graph: %w", err)
	}
	if !*jsonOut {
		fmt.Fprintf(out, "data graph: n=%d m=%d maxdeg=%d\n", g.NumNodes(), g.NumEdges(), g.MaxDegree())
		fmt.Fprintf(out, "sample: %v (p=%d, |Aut|=%d)\n", s, s.P(), len(s.Automorphisms()))
	}

	var distWorkers []string
	if *distAddrs != "" {
		distWorkers = strings.Split(*distAddrs, ",")
	}
	if planStrategy, err := subgraphmr.ParseStrategy(*strategy); err == nil {
		return runPlanned(out, g, s, planStrategy, plannedOptions{
			k: *k, buckets: *buckets, countOnly: *countOnly,
			seed: *hashSeed, workers: *workers, partitions: *partitions,
			memBudget: *memBudget, spillDir: *spillDir,
			adaptive: *adaptive, skewThreshold: *skewThresh,
			distWorkers: distWorkers, distSpawn: *distSpawn, fault: *faultFlag,
			explain: *explain, jsonOut: *jsonOut, printAll: *printAll,
		})
	}
	if *explain || *jsonOut {
		return fmt.Errorf("-explain and -json require a map-reduce strategy (got %q)", *strategy)
	}
	if len(distWorkers) > 0 || *distSpawn > 0 {
		return fmt.Errorf("-dist-workers and -distributed require a map-reduce strategy (got %q)", *strategy)
	}

	var instances [][]subgraphmr.Node
	switch *strategy {
	case "serial":
		instances = subgraphmr.BruteForce(g, s)
		fmt.Fprintf(out, "strategy: serial brute force\n")
	case "serial-decompose":
		var work int64
		instances, work = subgraphmr.EnumerateByDecomposition(g, s)
		fmt.Fprintf(out, "strategy: serial decomposition (Theorem 7.2), work=%d\n", work)
	case "serial-degree":
		var work int64
		instances, work, err = serial.EnumerateBoundedDegree(g, s)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "strategy: serial bounded-degree (Theorem 7.3), work=%d\n", work)
	case "doulion":
		if *sampleName != "triangle" {
			return fmt.Errorf("the doulion baseline supports -sample triangle only")
		}
		est := approx.DoulionTriangles(g, *doulionQ, *trials, *genSeed)
		fmt.Fprintf(out, "strategy: doulion probabilistic counting (q=%.2f, %d trials)\n", *doulionQ, *trials)
		fmt.Fprintf(out, "estimated triangles: %.0f\n", est)
		return nil
	default:
		return fmt.Errorf("unknown strategy %q (want %s)", *strategy, strategyNames)
	}

	if *countOnly {
		// Serial strategies materialize regardless; report the count so
		// -count output is uniform across strategies.
		fmt.Fprintf(out, "instances counted: %d\n", len(instances))
		return nil
	}
	fmt.Fprintf(out, "instances found: %d\n", len(instances))
	if *printAll {
		printInstances(out, s, instances)
	}
	return nil
}

// startProfiles starts CPU profiling and/or arranges a heap profile,
// returning a stop function run() defers: it stops the CPU profile and
// writes the heap profile (after a GC, so live-heap numbers are accurate).
// Empty paths disable the respective profile.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("creating cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting cpu profile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sgmr: creating mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sgmr: writing mem profile: %v\n", err)
			}
		}
	}, nil
}

// plannedOptions carries the flag values for the Plan/Run path.
type plannedOptions struct {
	k, buckets          int
	countOnly           bool
	seed                uint64
	workers, partitions int
	memBudget           int64
	spillDir            string
	adaptive            bool
	skewThreshold       float64
	distWorkers         []string
	distSpawn           int
	fault               string
	explain, jsonOut    bool
	printAll            bool
}

// serveWorkerCmd is the -serve-worker mode: the process becomes a
// distributed worker serving jobs on addr until interrupted.
func serveWorkerCmd(addr string, out io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sgmr: worker listening on %s\n", ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := subgraphmr.ServeWorker(ctx, ln); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// faultSpec translates the -fault flag into the injected failure the
// difftests use: the first worker to stream an instance is killed/dropped,
// or worker 0 stalls.
func faultSpec(mode string) (subgraphmr.FaultSpec, error) {
	switch mode {
	case "kill":
		return subgraphmr.FaultSpec{Mode: subgraphmr.FaultKill, Worker: -1, AfterInstances: 1}, nil
	case "drop":
		return subgraphmr.FaultSpec{Mode: subgraphmr.FaultDrop, Worker: -1, AfterInstances: 1}, nil
	case "stall":
		return subgraphmr.FaultSpec{Mode: subgraphmr.FaultStall, Worker: 0, AfterInstances: 1}, nil
	}
	return subgraphmr.FaultSpec{}, fmt.Errorf("unknown -fault mode %q (want kill, drop or stall)", mode)
}

// jsonDocument is the -json output shape: the plan (with every candidate
// estimate) and, unless -explain suppressed execution, the result.
type jsonDocument struct {
	Graph struct {
		Nodes, Edges, MaxDegree int
	}
	Sample    string
	Plan      *subgraphmr.QueryPlan
	Result    *jsonResult         `json:",omitempty"`
	Instances [][]subgraphmr.Node `json:",omitempty"`
}

type jsonResult struct {
	Count            int64
	TotalComm        int64
	TotalReducerWork int64
	Jobs             []subgraphmr.JobStats
}

// runPlanned drives a map-reduce strategy through the unified
// Plan/Run API: -explain stops after planning, -json switches the whole
// report to one JSON document.
func runPlanned(out io.Writer, g *subgraphmr.Graph, s *subgraphmr.Sample, st subgraphmr.PlanStrategy, o plannedOptions) error {
	opts := []subgraphmr.Option{
		subgraphmr.WithStrategy(st),
		subgraphmr.WithTargetReducers(o.k),
		subgraphmr.WithSeed(o.seed),
		subgraphmr.WithParallelism(o.workers),
		subgraphmr.WithPartitions(o.partitions),
		subgraphmr.WithMemoryBudget(o.memBudget),
		subgraphmr.WithSpillDir(o.spillDir),
	}
	if o.buckets > 0 {
		opts = append(opts, subgraphmr.WithBuckets(o.buckets))
	}
	if o.countOnly {
		opts = append(opts, subgraphmr.WithCountOnly())
	}
	if o.adaptive {
		opts = append(opts, subgraphmr.WithAdaptive())
	}
	if o.skewThreshold > 0 {
		opts = append(opts, subgraphmr.WithSkewThreshold(o.skewThreshold))
	}
	if len(o.distWorkers) > 0 {
		opts = append(opts, subgraphmr.WithWorkers(o.distWorkers))
	}
	if o.distSpawn > 0 {
		opts = append(opts, subgraphmr.WithDistributed(o.distSpawn))
	}
	if o.fault != "" {
		if len(o.distWorkers) == 0 && o.distSpawn == 0 {
			return fmt.Errorf("-fault requires -dist-workers or -distributed")
		}
		f, err := faultSpec(o.fault)
		if err != nil {
			return err
		}
		opts = append(opts, subgraphmr.WithFaultInjection(f))
		if f.Mode == subgraphmr.FaultStall {
			// A stalled worker is only declared dead at the read deadline;
			// the default 15s makes an interactive run feel hung.
			opts = append(opts, subgraphmr.WithWorkerTimeout(3*time.Second))
		}
	}
	plan, err := subgraphmr.Plan(g, s, opts...)
	if err != nil {
		return err
	}

	doc := jsonDocument{Sample: fmt.Sprint(s), Plan: plan}
	doc.Graph.Nodes, doc.Graph.Edges, doc.Graph.MaxDegree = g.NumNodes(), g.NumEdges(), g.MaxDegree()

	if o.explain {
		if o.jsonOut {
			return writeJSON(out, doc)
		}
		fmt.Fprint(out, plan.Explain())
		return nil
	}

	res, err := subgraphmr.Run(context.Background(), plan)
	if err != nil {
		return err
	}

	if o.jsonOut {
		doc.Result = &jsonResult{
			Count:            res.Count,
			TotalComm:        res.TotalComm(),
			TotalReducerWork: res.TotalReducerWork(),
			Jobs:             res.Jobs,
		}
		if o.printAll {
			doc.Instances = res.Instances
		}
		return writeJSON(out, doc)
	}

	fmt.Fprintf(out, "strategy: %v, %d CQ(s), %d job(s)\n", plan.Strategy, plan.NumCQs, len(res.Jobs))
	var total subgraphmr.Metrics
	for _, job := range res.Jobs {
		if strings.HasPrefix(job.Label, "distributed:") {
			// The coordinator's summary entry: no shares or metrics of its
			// own, just the cluster shape and the retry accounting.
			fmt.Fprintf(out, "  %s, retried partitions: %d\n", job.Label, job.RetriedPartitions)
			continue
		}
		replanMark := ""
		if job.Replanned {
			replanMark = " [replanned]"
		}
		fmt.Fprintf(out, "  job %q shares=%v%s\n", job.Label, job.Shares, replanMark)
		fmt.Fprintf(out, "    predicted comm/edge=%.2f (fractional optimum %.2f)\n",
			job.PredictedCommPerEdge, job.OptimalCommPerEdge)
		mt := job.Metrics
		fmt.Fprintf(out, "    measured: comm=%d (%.2f/edge) reducers=%d maxload=%d skew=%.2f work=%d\n",
			mt.KeyValuePairs, float64(mt.KeyValuePairs)/float64(g.NumEdges()),
			mt.DistinctKeys, mt.MaxReducerInput, job.ObservedSkew, mt.ReducerWork)
		total.Add(mt)
	}
	fmt.Fprintf(out, "total communication: %d key-value pairs\n", res.TotalComm())
	printSpill(out, total)
	if o.countOnly {
		fmt.Fprintf(out, "instances counted: %d\n", res.Count)
		return nil
	}
	fmt.Fprintf(out, "instances found: %d\n", res.Count)
	if o.printAll {
		printInstances(out, s, res.Instances)
	}
	return nil
}

func writeJSON(out io.Writer, doc jsonDocument) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// printInstances lists instances sorted lexicographically, one variable
// assignment per line.
func printInstances(out io.Writer, s *subgraphmr.Sample, instances [][]subgraphmr.Node) {
	sorted := append([][]subgraphmr.Node(nil), instances...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	for _, phi := range sorted {
		for i, u := range phi {
			if i > 0 {
				fmt.Fprint(out, " ")
			}
			fmt.Fprintf(out, "%s=%d", s.Name(i), u)
		}
		fmt.Fprintln(out)
	}
}

// printSpill reports external-shuffle activity when a memory budget was in
// play; silent otherwise so default output is unchanged.
func printSpill(out io.Writer, m subgraphmr.Metrics) {
	if m.SpilledPairs > 0 {
		fmt.Fprintf(out, "external shuffle: spilled=%d pairs, %d bytes, %d run file(s)\n",
			m.SpilledPairs, m.SpillBytes, m.SpillFiles)
	}
}

func loadGraph(dataFile, gen string, n, m int, prob, avgDeg, exponent float64, delta, depth, rows, cols int, seed int64) (*subgraphmr.Graph, error) {
	if dataFile != "" {
		if dataFile == "-" {
			return subgraphmr.ReadGraph(os.Stdin)
		}
		f, err := os.Open(dataFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return subgraphmr.ReadGraph(f)
	}
	switch gen {
	case "gnm":
		return subgraphmr.Gnm(n, m, seed), nil
	case "gnp":
		return subgraphmr.Gnp(n, prob, seed), nil
	case "powerlaw":
		return subgraphmr.PowerLaw(n, avgDeg, exponent, seed), nil
	case "ba":
		return subgraphmr.BarabasiAlbert(n, 4, 3, seed), nil
	case "cycle":
		return subgraphmr.CycleGraph(n), nil
	case "complete":
		return subgraphmr.CompleteGraph(n), nil
	case "grid":
		return subgraphmr.GridGraph(rows, cols), nil
	case "tree":
		return subgraphmr.RegularTree(delta, depth), nil
	}
	return nil, fmt.Errorf("unknown generator %q", gen)
}
