package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"subgraphmr"
)

// env is what one workload run takes from the command line.
type env struct {
	seed     int64
	scale    scale
	seconds  float64
	trace    bool
	outDir   string
	spillDir string
	// oracleSkew is added to every oracle count; tests set it to prove a
	// wrong answer is counted as a failure and fails the process.
	oracleSkew int64
}

// record is the outcome of one workload run, written to
// <out>/record-<workload>[-trace].json and folded into results.json.
type record struct {
	Workload   string          `json:"workload"`
	Trace      bool            `json:"trace"`
	Seed       int64           `json:"seed"`
	Iterations int             `json:"iterations"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Failures   []string        `json:"failures,omitempty"`
	Metrics    map[string]stat `json:"metrics"`
}

const maxFailureMessages = 10

// setupBudget is the time repeated set-ups may take beyond the minimum
// count.
const setupBudget = 1.0 // seconds

func (r *record) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureMessages {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *record) path(outDir string) string {
	name := "record-" + r.Workload
	if r.Trace {
		name += "-trace"
	}
	return filepath.Join(outDir, name+".json")
}

// loopResult is what one timed loop (batch iterations or HTTP requests)
// measured. One query is one iteration or one request.
type loopResult struct {
	latencies    []float64 // seconds per query
	firstResults []float64 // seconds to the first instance, where the query yields one
	wall         float64
	mallocs      float64 // per query
	allocBytes   float64 // per query
}

// execResult is one executed query.
type execResult struct {
	count int64
	first float64 // seconds from the Instances call to the first instance
}

// exec plans and executes q once, recording a span per layer call.
func (q *query) exec(ctx context.Context, tr *tracer, parent int, id string) (execResult, error) {
	var out execResult
	sp := tr.start("planner.Plan", parent, id)
	plan, err := subgraphmr.Plan(q.g, q.s, q.opts...)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("plan: %w", err)
	}
	if !q.iterate {
		sp = tr.start("runner.Run", parent, id)
		res, err := subgraphmr.Run(ctx, plan)
		tr.end(sp)
		if err != nil {
			return out, fmt.Errorf("run: %w", err)
		}
		out.count = res.Count
		return out, nil
	}
	sp = tr.start("runner.Instances", parent, id)
	defer tr.end(sp)
	start := time.Now()
	for _, err := range subgraphmr.Instances(ctx, plan) {
		if err != nil {
			return out, fmt.Errorf("instances: %w", err)
		}
		if out.count == 0 {
			out.first = since(start)
		}
		out.count++
	}
	return out, nil
}

// firstResult times the Instances call of q up to its first instance and
// then breaks out, which tears the engine down.
func (q *query) firstResult(ctx context.Context) (float64, error) {
	plan, err := subgraphmr.Plan(q.g, q.s, q.opts...)
	if err != nil {
		return 0, fmt.Errorf("plan: %w", err)
	}
	start := time.Now()
	for _, err := range subgraphmr.Instances(ctx, plan) {
		if err != nil {
			return 0, fmt.Errorf("instances: %w", err)
		}
		return since(start), nil
	}
	return 0, fmt.Errorf("instances: no instance to wait for")
}

// loop runs queries for dur (and at least the scale's floor), checking
// every answer against the oracle.
func (b *bed) loop(ctx context.Context, e *env, rec *record, dur float64, tr *tracer) loopResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var lr loopResult
	if b.serve != nil {
		lr = b.serveLoop(e, rec, start, dur, tr)
	} else {
		lr = b.batchLoop(ctx, e, rec, start, dur, tr)
	}
	lr.wall = since(start)
	runtime.ReadMemStats(&after)
	n := float64(len(lr.latencies))
	lr.mallocs = float64(after.Mallocs-before.Mallocs) / n
	lr.allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	return lr
}

func (b *bed) batchLoop(ctx context.Context, e *env, rec *record, start time.Time, dur float64, tr *tracer) loopResult {
	var lr loopResult
	for i := 0; i < e.scale.minIters || since(start) < dur; i++ {
		id := fmt.Sprintf("iter-%d", i)
		rec.Attempted++
		iterStart := time.Now()
		root := tr.start("query", 0, id)
		var err error
		for qi := range b.queries {
			q := &b.queries[qi]
			var out execResult
			if out, err = q.exec(ctx, tr, root, id); err != nil {
				break
			}
			if out.count != q.want {
				err = fmt.Errorf("query %d counted %d instances, oracle %d", qi, out.count, q.want)
				break
			}
			if q.iterate {
				lr.firstResults = append(lr.firstResults, out.first)
			}
		}
		tr.end(root)
		lr.latencies = append(lr.latencies, since(iterStart))
		if err != nil {
			rec.fail("%s: %v", id, err)
		}
	}
	return lr
}

func (b *bed) serveLoop(e *env, rec *record, start time.Time, dur float64, tr *tracer) loopResult {
	var (
		lr   loopResult
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= e.scale.minReqs && since(start) >= dur {
					return
				}
				q := &b.queries[b.serve.schedule[i%len(b.serve.schedule)]]
				sp := tr.start("serve.request", 0, fmt.Sprintf("client-%d-req-%d", c, i))
				reqStart := time.Now()
				first, err := b.serve.request(q)
				lat := since(reqStart)
				tr.end(sp)
				mu.Lock()
				rec.Attempted++
				lr.latencies = append(lr.latencies, lat)
				if first > 0 {
					lr.firstResults = append(lr.firstResults, first)
				}
				if err != nil {
					rec.fail("request %d (%s): %v", i, q.params, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lr
}

// request sends q over HTTP and checks the reply against the oracle. Any
// status but 200 — a 429 included — is an error. first is the time to the
// first NDJSON line of a streaming reply, 0 otherwise.
func (sb *serveBed) request(q *query) (first float64, err error) {
	start := time.Now()
	resp, err := sb.client.Get(sb.url + "/query?" + q.params)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the message
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var count int64 = -1
	if !strings.Contains(q.params, "stream=1") {
		var body struct {
			Count int64 `json:"count"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return 0, fmt.Errorf("decoding reply: %w", err)
		}
		count = body.Count
	} else {
		var lines int64
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if first == 0 {
				first = since(start)
			}
			if bytes.HasPrefix(sc.Bytes(), []byte(`{"instance"`)) {
				lines++
				continue
			}
			var summary struct {
				Count *int64 `json:"count"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				return first, fmt.Errorf("decoding stream line: %w", err)
			}
			if summary.Error != "" || summary.Count == nil {
				return first, fmt.Errorf("stream ended with %q", sc.Bytes())
			}
			count = *summary.Count
		}
		if err := sc.Err(); err != nil {
			return first, fmt.Errorf("reading stream: %w", err)
		}
		if lines != count {
			return first, fmt.Errorf("streamed %d instance lines, summary says %d", lines, count)
		}
	}
	if count != q.want {
		return first, fmt.Errorf("served count %d, oracle %d", count, q.want)
	}
	return first, nil
}

// runWorkload measures one workload in this process: set-up (several
// times, median reported), oracle, warm-up, then either the untraced timed
// loop that yields the end-to-end metrics or the traced loop and the layer
// probes that yield the per-layer ones.
func runWorkload(w workload, e *env) (*record, error) {
	rec := &record{Workload: w.name, Trace: e.trace, Seed: e.seed, Metrics: map[string]stat{}}
	ctx := context.Background()
	goroutines := runtime.NumGoroutine()

	// Set up at least minSetups times and, while set-up is cheap, up to
	// maxSetups: a millisecond set-up needs the samples, a slow one must
	// not eat the run.
	var setups []float64
	var b *bed
	for total := 0.0; len(setups) < e.scale.minSetups || (len(setups) < e.scale.maxSetups && total < setupBudget); {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setups = append(setups, since(start))
		total += setups[len(setups)-1]
	}
	defer b.close()

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	sp := tr.start("serial.oracle", 0, "oracle")
	oracleStart := time.Now()
	var serialWork int64
	for i := range b.queries {
		q := &b.queries[i]
		count, work, err := oracle(q.g, q.s)
		if err != nil {
			return nil, err
		}
		q.want = count + e.oracleSkew
		if i == 0 {
			serialWork = work
		}
	}
	oracleS := since(oracleStart)
	tr.end(sp)

	// Warm-up, untimed: one count-only Run per query gives the exact
	// communication cost of this seed's inputs, then one discarded pass
	// over the real path fills caches and pools.
	var pairs, edges int64
	warm := make([]*subgraphmr.Result, len(b.queries))
	for i := range b.queries {
		q := &b.queries[i]
		plan, err := subgraphmr.Plan(q.g, q.s, append([]subgraphmr.Option{subgraphmr.WithCountOnly()}, q.opts...)...)
		if err != nil {
			return nil, fmt.Errorf("warm-up plan of %s query %d: %w", w.name, i, err)
		}
		if warm[i], err = subgraphmr.Run(ctx, plan); err != nil {
			return nil, fmt.Errorf("warm-up run of %s query %d: %w", w.name, i, err)
		}
		pairs += warm[i].TotalComm()
		edges += int64(q.g.NumEdges())
	}
	warmE := *e
	warmE.scale.minIters, warmE.scale.minReqs = 1, len(b.queries)
	b.loop(ctx, &warmE, &record{}, 0, nil)

	if !e.trace {
		// Workloads whose queries do not iterate spend the last fifth of
		// the run asking Instances for a first instance only.
		measureStart := time.Now()
		separateFirst := b.serve == nil && !b.queries[0].iterate
		share := 1.0
		if separateFirst {
			share = 0.8
		}
		lr := b.loop(ctx, e, rec, e.seconds*share, nil)
		for separateFirst && (len(lr.firstResults) < e.scale.minIters || since(measureStart) < e.seconds) {
			rec.Attempted++
			first, err := b.queries[0].firstResult(ctx)
			if err != nil {
				rec.fail("first result: %v", err)
				break
			}
			lr.firstResults = append(lr.firstResults, first)
		}
		rec.Iterations = len(lr.latencies)
		rec.Metrics["setup_s"] = summarize("s", setups)
		rec.Metrics["query_s"] = summarize("s", lr.latencies)
		rec.Metrics["first_result_s"] = summarize("s", lr.firstResults)
		rec.Metrics["qps"] = single("1/s", float64(len(lr.latencies))/lr.wall)
		rec.Metrics["allocs_per_query"] = single("allocs", lr.mallocs)
		rec.Metrics["alloc_bytes_per_query"] = single("B", lr.allocBytes)
		rec.Metrics["comm_per_edge"] = single("pairs/edge", float64(pairs)/float64(edges))
	} else {
		plain := b.loop(ctx, e, rec, e.seconds/4, nil)
		traced := b.loop(ctx, e, rec, e.seconds/4, tr)
		rec.Iterations = len(traced.latencies)
		rec.Metrics["trace.overhead_frac"] = single("ratio",
			summarize("s", traced.latencies).Median/summarize("s", plain.latencies).Median-1)
		rec.Metrics["serial.oracle_s"] = single("s", oracleS)
		rec.Metrics["serial.work"] = single("count", float64(serialWork))
		p := &prober{ctx: ctx, e: e, rec: rec, tr: tr, b: b, serialWork: serialWork, warm: warm[0], loop: traced}
		p.run()
	}

	b.close()
	checkHygiene(e, rec, goroutines, 2*time.Second)
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}
	if !e.trace {
		rec.Metrics["peak_rss_bytes"] = single("B", rss)
	} else if err := tr.write(filepath.Join(e.outDir, "trace-"+w.name+".json"), w.name); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return rec, nil
}

// checkHygiene reports what a workload left behind as failures: spill run
// files in the harness's own spill directory, and goroutines above the
// count the process started with (given wait to wind down).
func checkHygiene(e *env, rec *record, baseline int, wait time.Duration) {
	rec.Attempted++
	left, err := filepath.Glob(filepath.Join(e.spillDir, "sgmr-spill-*"))
	if err != nil || len(left) > 0 {
		rec.fail("hygiene: %d spill files left in %s (glob error: %v)", len(left), e.spillDir, err)
		return
	}
	deadline := time.Now().Add(wait)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		rec.fail("hygiene: %d goroutines after the workload, %d before", n, baseline)
	}
}

// writeRecord stores rec under outDir for the parent run to collect.
func writeRecord(rec *record, outDir string) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(rec.path(outDir), data, 0o644)
}
