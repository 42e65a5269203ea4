package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"subgraphmr"
	"subgraphmr/internal/core"
	"subgraphmr/internal/cq"
	"subgraphmr/internal/distrib"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/serial"
	"subgraphmr/internal/serve"
	"subgraphmr/internal/shares"
	"subgraphmr/internal/triangle"
)

// defaultReducers is Plan's default reducer budget k, which every
// workload but the cheap serve-mix queries runs under.
const defaultReducers = 1024

// prober runs the layer-probe phase of a traced run: after the timed
// iterations it calls each layer's exported functions directly on the
// workload's own graph, sample and engine options, one span per call.
type prober struct {
	ctx        context.Context
	e          *env
	rec        *record
	tr         *tracer
	b          *bed
	serialWork int64
	warm       *subgraphmr.Result // the warm-up's count-only Run of queries[0]
	loop       loopResult         // the traced loop

	g    *subgraphmr.Graph
	s    *subgraphmr.Sample
	want int64
	root int
}

func (p *prober) set(name, unit string, v float64) { p.rec.Metrics[name] = single(unit, v) }

// call times f under a span and counts an error against the run.
func (p *prober) call(name string, f func() error) float64 {
	p.rec.Attempted++
	sp := p.tr.start(name, p.root, "probe")
	start := time.Now()
	err := f()
	secs := since(start)
	p.tr.end(sp)
	if err != nil {
		p.rec.fail("probe %s: %v", name, err)
	}
	return secs
}

// abort counts a layer whose probes could not start as one failure.
func (p *prober) abort(layer string, err error) {
	p.rec.Attempted++
	p.rec.fail("probe %s: %v", layer, err)
}

// probeBudget stops the repetitions of one probe: a call that costs a whole
// query runs once, a cheap one up to its full count.
const probeBudget = 0.5 // seconds

// samples is the sorted wall-clock of up to n calls of f, fewer when they
// use up probeBudget.
func (p *prober) samples(name string, n int, f func() error) []float64 {
	var secs []float64
	for total := 0.0; len(secs) < n && (len(secs) == 0 || total < probeBudget); {
		secs = append(secs, p.call(name, f))
		total += secs[len(secs)-1]
	}
	sort.Float64s(secs)
	return secs
}

func (p *prober) median(name string, n int, f func() error) float64 {
	return quantile(p.samples(name, n, f), 0.5)
}

// opts is the workload's engine options followed by extra.
func (p *prober) opts(extra ...subgraphmr.Option) []subgraphmr.Option {
	return append(append([]subgraphmr.Option(nil), p.b.engineOpts...), extra...)
}

// planRun is one fresh Plan + Run of sample s on the workload's graph,
// with the count checked against want.
func (p *prober) planRun(s *subgraphmr.Sample, want int64, opts ...subgraphmr.Option) (*subgraphmr.Result, error) {
	plan, err := subgraphmr.Plan(p.g, s, opts...)
	if err != nil {
		return nil, err
	}
	res, err := subgraphmr.Run(p.ctx, plan)
	if err != nil {
		return nil, err
	}
	if res.Count != want {
		return nil, fmt.Errorf("counted %d instances, oracle %d", res.Count, want)
	}
	return res, nil
}

func (p *prober) run() {
	q := &p.b.queries[0]
	p.g, p.s, p.want = q.g, q.s, q.want
	p.root = p.tr.start("probes", 0, "probe")
	defer p.tr.end(p.root)
	p.graphLayer()
	p.cqLayer()
	p.plannerLayer()
	p.mapreduceLayer()
	p.strategyLayer()
	p.runnerLayer()
	p.distribLayer()
	p.serveLayer()
}

func (p *prober) graphLayer() {
	n, edges := p.g.NumNodes(), p.g.Edges()
	p.set("graph.build_s", "s", p.median("graph.FromEdges", p.e.scale.runReps, func() error {
		graph.FromEdges(n, edges)
		return nil
	}))
	p.set("graph.sparse_freeze_s", "s", p.median("graph.SparseFromEdges", p.e.scale.runReps, func() error {
		graph.SparseFromEdges(edges)
		return nil
	}))

	// Half the probes are present edges, half random pairs (mostly absent).
	rng := rand.New(rand.NewSource(subSeed(p.e.seed, 100)))
	probes := make([]graph.Edge, p.e.scale.graphProbes)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = edges[rng.Intn(len(edges))]
		} else {
			probes[i] = graph.Edge{U: graph.Node(rng.Intn(n)), V: graph.Node(rng.Intn(n))}
		}
	}
	hits := 0
	secs := p.call("graph.HasEdge", func() error {
		for _, e := range probes {
			if p.g.HasEdge(e.U, e.V) {
				hits++
			}
		}
		if hits < len(probes)/2 {
			return fmt.Errorf("%d of %d probes hit, at least half are edges", hits, len(probes))
		}
		return nil
	})
	p.set("graph.has_edge_ns", "ns", secs*1e9/float64(len(probes)))

	var common []graph.Node
	secs = p.call("graph.CommonNeighbors", func() error {
		for _, e := range edges {
			common = p.g.CommonNeighbors(e.U, e.V, common[:0])
		}
		return nil
	})
	p.set("graph.common_neighbors_ns", "ns", secs*1e9/float64(len(edges)))
}

// cqLayer times CQ generation, the evaluator over the whole graph as one
// reducer (the b = 1 case), and share optimisation for the sample.
func (p *prober) cqLayer() {
	var cqs []*cq.CQ
	p.set("cq.generate_s", "s", p.median("cq.GenerateForSample", p.e.scale.plannerReps, func() error {
		cqs = cq.MergeByOrientation(cq.GenerateForSample(p.s))
		return nil
	}))
	p.set("cq.num_cqs", "count", float64(len(cqs)))

	local := graph.SparseFromEdges(p.g.Edges())
	var work int64
	p.set("cq.eval_s", "s", p.call("cq.EvaluateAll", func() error {
		var found int64
		work = cq.NewEvaluatorSet(cqs).EvaluateAll(local, graph.NaturalLess, func([]graph.Node) { found++ })
		if found != p.want {
			return fmt.Errorf("evaluated %d instances, oracle %d", found, p.want)
		}
		return nil
	}))
	p.set("cq.eval_work", "count", float64(work))

	model := shares.VariableOrientedModel(p.s.P(), cqs)
	var sol shares.Solution
	p.set("shares.solve_s", "s", p.median("shares.Solve", p.e.scale.plannerReps, func() (err error) {
		sol, err = model.Solve(defaultReducers)
		return err
	}))
	p.set("shares.predicted_comm_per_edge", "pairs/edge", sol.CostPerEdge)
}

func (p *prober) plannerLayer() {
	var plan *subgraphmr.QueryPlan
	p.set("planner.plan_s", "s", p.median("planner.Plan", p.e.scale.plannerReps, func() (err error) {
		plan, err = subgraphmr.Plan(p.g, p.s, p.opts()...)
		return err
	}))
	p.set("planner.plan_adaptive_s", "s", p.call("planner.PlanAdaptive", func() error {
		_, err := subgraphmr.Plan(p.g, p.s, p.opts(subgraphmr.WithAdaptive())...)
		return err
	}))
	if plan == nil {
		return
	}
	viable := 0
	for _, c := range plan.Candidates {
		if c.Viable {
			viable++
		}
	}
	p.set("planner.candidates", "count", float64(viable))
	observed := float64(p.warm.TotalComm())
	p.set("planner.comm_prediction_err", "ratio", math.Abs(float64(plan.Chosen.EstComm)-observed)/observed)

	n := p.e.scale.cacheProbes
	opts := p.opts()
	secs := p.call("planner.QueryKey", func() error {
		for i := 0; i < n; i++ {
			subgraphmr.QueryKey("g", p.s, opts...)
		}
		return nil
	})
	p.set("planner.querykey_ns", "ns", secs*1e9/float64(n))
}

// mapreduceLayer reports the engine counters of the workload's own query
// and times a synthetic pass-through job of the same shape, in memory and
// under the scale's spill budget, so shuffle and spill cost are seen
// without any mapper or reducer logic.
func (p *prober) mapreduceLayer() {
	var m mapreduce.Metrics
	for _, j := range p.warm.Jobs {
		m.Add(j.Metrics)
	}
	p.set("mapreduce.pairs", "count", float64(m.KeyValuePairs))
	p.set("mapreduce.distinct_keys", "count", float64(m.DistinctKeys))
	p.set("mapreduce.max_reducer_input", "count", float64(m.MaxReducerInput))
	p.set("mapreduce.skew", "ratio", m.Skew())
	p.set("mapreduce.reducer_work", "count", float64(m.ReducerWork))
	p.set("mapreduce.outputs", "count", float64(m.Outputs))
	p.set("mapreduce.spilled_pairs", "count", float64(m.SpilledPairs))
	p.set("mapreduce.spill_bytes", "B", float64(m.SpillBytes))
	p.set("mapreduce.spill_files", "count", float64(m.SpillFiles))

	const fan = 16 // pairs emitted per synthetic input
	pairs := min(m.KeyValuePairs, p.e.scale.syntheticPairsCap)
	keys := max(m.DistinctKeys*pairs/m.KeyValuePairs, 1)
	inputs := make([]int64, pairs/fan)
	for i := range inputs {
		inputs[i] = int64(i)
	}
	job := mapreduce.Job[int64, int64, int64, int64]{
		Name: "bench pass-through",
		Map: func(in int64, emit func(int64, int64)) {
			for j := int64(0); j < fan; j++ {
				x := in*fan + j
				emit(int64(uint64(x)*0x9e3779b97f4a7c15>>11)%keys, x)
			}
		},
		Reduce: func(_ *mapreduce.Context, _ int64, values []int64, emit func(int64)) {
			emit(int64(len(values)))
		},
	}
	shuffled := float64(len(inputs) * fan)
	var spilled mapreduce.Metrics // of the latest pass
	pass := func(cfg mapreduce.Config) func() error {
		return func() (err error) {
			var grouped int64
			spilled, err = job.RunStream(p.ctx, cfg, inputs, func(n int64) bool { grouped += n; return true })
			if err == nil && float64(grouped) != shuffled {
				err = fmt.Errorf("grouped %d pairs of %.0f", grouped, shuffled)
			}
			return err
		}
	}
	secs := p.median("mapreduce.RunStream", p.e.scale.runReps, pass(mapreduce.Config{}))
	p.set("mapreduce.shuffle_s", "s", secs)
	p.set("mapreduce.pairs_per_s", "1/s", shuffled/secs)
	budget := mapreduce.Config{MemoryBudget: p.e.scale.spillBudget, SpillDir: p.e.spillDir}
	p.set("mapreduce.spill_s", "s", p.median("mapreduce.RunStream.spill", p.e.scale.runReps, pass(budget)))

	// Silvestri-style floor beside the observation: every spilled value is
	// written once per merge pass (9 bytes: a length byte and a big-endian
	// word), and a fan-in of 32 needs ceil(log32(runs)) passes per worker.
	perPair, passes := 0.0, 1.0
	if spilled.SpilledPairs > 0 {
		perPair = float64(spilled.SpillBytes) / float64(spilled.SpilledPairs)
		runsPerWorker := float64(spilled.SpillFiles) / float64(runtime.GOMAXPROCS(0))
		passes = max(math.Ceil(math.Log(runsPerWorker)/math.Log(32)), 1)
	}
	p.set("mapreduce.spill_bytes_per_pair", "B/pair", perPair)
	p.set("mapreduce.spill_floor_bytes_per_pair", "B/pair", 9*passes)
}

// strategyLayer forces each strategy on the workload's graph: what the
// chosen one costs and what Auto left on the table, each with its measured
// communication and the paper's closed form beside it. All run in memory,
// whatever the workload's engine options: eight spilling runs would not
// fit a traced run, and the spill cost is mapreduce.spill_s. The
// strategies that only take triangles, and decomposed (whose Theorem 7.2
// join is quadratic in the edges of a reducer for four-node samples), run
// the triangle sample on every workload.
func (p *prober) strategyLayer() {
	tri := subgraphmr.Triangle()
	triWant := p.want
	if !isTriangle(p.s) {
		triWant = serial.CountTriangles(p.g)
	}
	forced := []struct {
		name     string
		strategy subgraphmr.PlanStrategy
		triangle bool
	}{
		{"core.bucket_oriented", subgraphmr.StrategyBucketOriented, false},
		{"core.variable_oriented", subgraphmr.StrategyVariableOriented, false},
		{"core.cq_oriented", subgraphmr.StrategyCQOriented, false},
		{"core.decomposed", subgraphmr.StrategyDecomposed, true},
		{"triangle.partition", subgraphmr.StrategyTrianglePartition, true},
		{"triangle.multiway", subgraphmr.StrategyTriangleMultiway, true},
		{"triangle.bucket_ordered", subgraphmr.StrategyTriangleBucketOrdered, true},
		{"tworound.cascade", subgraphmr.StrategyTwoRound, true},
	}
	m := float64(p.g.NumEdges())
	buckets := map[string]int{}
	for _, f := range forced {
		s, want := p.s, p.want
		if f.triangle {
			s, want = tri, triWant
		}
		var res *subgraphmr.Result
		secs := p.call(f.name, func() (err error) {
			res, err = p.planRun(s, want, subgraphmr.WithStrategy(f.strategy), subgraphmr.WithCountOnly())
			return err
		})
		p.set(f.name+"_s", "s", secs)
		if res == nil {
			continue
		}
		paper := 0.0
		for _, j := range res.Jobs {
			paper += j.OptimalCommPerEdge
		}
		p.set(f.name+"_comm_per_edge", "pairs/edge", float64(res.TotalComm())/m)
		p.set(f.name+"_paper_comm_per_edge", "pairs/edge", paper)
		if len(res.Jobs[0].Shares) > 0 {
			buckets[f.name] = res.Jobs[0].Shares[0]
		}
		if f.strategy == subgraphmr.StrategyBucketOriented {
			// Convertibility (§6): total reducer work over serial work.
			p.set("core.reducer_work_ratio", "ratio", float64(res.TotalReducerWork())/float64(p.serialWork))
		}
	}

	// The exact mappers with no reduce: query time minus this is group
	// plus reduce.
	p.set("core.map_only_s", "s", p.call("core.ProbeBucketLoads", func() error {
		_, err := core.ProbeBucketLoads(p.g, p.s.P(), buckets["core.bucket_oriented"], 0, mapreduce.Config{})
		return err
	}))
	p.set("triangle.map_only_s", "s", p.call("triangle.ProbeLoads", func() error {
		_, err := triangle.ProbeLoads(p.g, "bucket", buckets["triangle.bucket_ordered"], 0, mapreduce.Config{})
		return err
	}))
}

// runnerLayer separates output assembly from counting on one plan.
func (p *prober) runnerLayer() {
	reps := p.e.scale.runReps
	p.set("runner.run_count_s", "s", p.median("runner.Run.count", reps, func() error {
		_, err := p.planRun(p.s, p.want, p.opts(subgraphmr.WithCountOnly())...)
		return err
	}))
	p.set("runner.run_materialized_s", "s", p.median("runner.Run", reps, func() error {
		res, err := p.planRun(p.s, p.want, p.opts()...)
		if err == nil && int64(len(res.Instances)) != p.want {
			err = fmt.Errorf("materialised %d instances, oracle %d", len(res.Instances), p.want)
		}
		return err
	}))
	p.set("runner.stream_s", "s", p.median("runner.Stream", reps, func() error {
		plan, err := subgraphmr.Plan(p.g, p.s, p.opts()...)
		if err != nil {
			return err
		}
		res, err := subgraphmr.Stream(p.ctx, plan, func([]subgraphmr.Node) bool { return true })
		if err == nil && res.Count != p.want {
			err = fmt.Errorf("streamed %d instances, oracle %d", res.Count, p.want)
		}
		return err
	}))
	p.set("runner.instances", "count", float64(p.want))
}

// distribLayer puts the wire beside local execution: the graph codec, a
// dial, and the same materialised query locally and through one and two
// loopback workers of its own.
func (p *prober) distribLayer() {
	reps := p.e.scale.runReps
	n, edges := p.g.NumNodes(), p.g.Edges()
	var payload []byte
	p.set("distrib.encode_graph_s", "s", p.median("distrib.EncodeGraph", reps, func() error {
		payload = distrib.EncodeGraph(n, edges)
		return nil
	}))
	p.set("distrib.decode_graph_s", "s", p.median("distrib.DecodeGraph", reps, func() error {
		_, err := distrib.DecodeGraph(payload)
		return err
	}))
	p.set("distrib.graph_payload_bytes", "B", float64(len(payload)))

	addrs, stop, err := startWorkers(2)
	if err != nil {
		p.abort("distrib", err)
		return
	}
	defer stop()
	p.set("distrib.dial_s", "s", p.median("distrib.Dial", reps, func() error {
		cl, err := distrib.Dial(p.ctx, addrs)
		if err != nil {
			return err
		}
		cl.Close()
		return nil
	}))
	var last *subgraphmr.Result
	for _, d := range []struct {
		name  string
		addrs []string
	}{{"distrib.local_s", nil}, {"distrib.workers_1_s", addrs[:1]}, {"distrib.workers_2_s", addrs}} {
		opts := p.opts()
		if d.addrs != nil {
			opts = append(opts, subgraphmr.WithWorkers(d.addrs))
		}
		p.set(d.name, "s", p.median(d.name, reps, func() (err error) {
			last, err = p.planRun(p.s, p.want, opts...)
			return err
		}))
	}
	retried := 0
	if last != nil {
		retried = last.Jobs[len(last.Jobs)-1].RetriedPartitions
	}
	p.set("distrib.retried_partitions", "count", float64(retried))
}

// serveLayer prices the resident path piece by piece. The cache, the pool
// and a cold-then-warm single client run on a service of the prober's
// own holding the workload's graph; on serve-mix the tail latency and the
// /metrics counters come from the workload's service and its traced loop.
func (p *prober) serveLayer() {
	n := p.e.scale.cacheProbes
	plan, err := subgraphmr.Plan(p.g, p.s, p.opts()...)
	if err != nil {
		p.abort("serve", err)
		return
	}
	cache := serve.NewPlanCache(8)
	build := func() (*subgraphmr.QueryPlan, error) { return plan, nil }
	cache.Get("key", build)
	secs := p.call("serve.PlanCache.Get", func() error {
		for i := 0; i < n; i++ {
			if _, hit, _ := cache.Get("key", build); !hit {
				return fmt.Errorf("lookup %d missed a cached key", i)
			}
		}
		return nil
	})
	p.set("serve.cache_get_hit_ns", "ns", secs*1e9/float64(n))
	pool := serve.NewPool(1<<30, 64)
	secs = p.call("serve.Pool.Acquire", func() error {
		for i := 0; i < n; i++ {
			release, err := pool.Acquire(p.ctx, plan.Chosen.EstShuffleBytes)
			if err != nil {
				return err
			}
			release()
		}
		return nil
	})
	p.set("serve.pool_acquire_ns", "ns", secs*1e9/float64(n))

	sb, stop, err := startServer(map[string]*subgraphmr.Graph{"g": p.g})
	if err != nil {
		p.abort("serve", err)
		return
	}
	defer stop()
	count := query{params: "graph=g&sample=" + p.b.queries[0].sample, want: p.want}
	stream := query{params: count.params + "&stream=1", want: p.want}
	request := func(q *query, first *float64) func() error {
		return func() (err error) {
			*first, err = sb.request(q)
			return err
		}
	}
	var first float64
	p.set("serve.cold_query_s", "s", p.call("serve.request.cold", request(&count, &first)))
	warm := p.samples("serve.request.warm", p.e.scale.serveWarmReqs, request(&count, &first))
	p.set("serve.warm_query_s", "s", quantile(warm, 0.5))
	// The handler streams and counts, so the direct twin is Stream on the
	// same plan.
	direct := p.median("runner.Stream", p.e.scale.serveWarmReqs, func() error {
		_, err := subgraphmr.Stream(p.ctx, plan, func([]subgraphmr.Node) bool { return true })
		return err
	})
	p.set("serve.handler_overhead_s", "s", quantile(warm, 0.5)-direct)
	p.call("serve.request.stream", request(&stream, &first))
	p.set("serve.stream_first_line_s", "s", first)

	latencies := warm
	if p.b.serve != nil {
		sb = p.b.serve
		latencies = append([]float64(nil), p.loop.latencies...)
		sort.Float64s(latencies)
	}
	p.set("serve.latency_s_p95", "s", quantile(latencies, 0.95))
	scraped, err := sb.scrape()
	if err != nil {
		p.abort("serve", err)
	}
	p.set("serve.plan_cache_hit_rate", "ratio", scraped["sgmr.plan_cache.hit_rate"])
	p.set("serve.admission_rejected", "count", scraped["sgmr.admission.rejected"])
}

// scrape reads the service's /metrics page into name → value.
func (sb *serveBed) scrape() (map[string]float64, error) {
	resp, err := sb.client.Get(sb.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
