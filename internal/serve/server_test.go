package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"subgraphmr"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Graphs == nil {
		cfg.Graphs = map[string]*subgraphmr.Graph{
			"gnm": subgraphmr.Gnm(120, 500, 9),
		}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp
}

// TestQueryCountMatchesOneShot pins serve-vs-one-shot parity: the service
// must return exactly the count a direct Plan+Run of the same query does.
func TestQueryCountMatchesOneShot(t *testing.T) {
	g := subgraphmr.Gnm(120, 500, 9)
	_, ts := testServer(t, Config{Graphs: map[string]*subgraphmr.Graph{"g": g}})

	plan, err := subgraphmr.Plan(g, subgraphmr.Triangle(),
		subgraphmr.WithStrategy(subgraphmr.StrategyBucketOriented),
		subgraphmr.WithTargetReducers(64))
	if err != nil {
		t.Fatal(err)
	}
	want, err := subgraphmr.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}

	var resp queryResponse
	r := getJSON(t, ts.URL+"/query?graph=g&sample=triangle&strategy=bucket&k=64", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if resp.Count != want.Count {
		t.Fatalf("served count %d, one-shot %d", resp.Count, want.Count)
	}
	if resp.Cache != "miss" {
		t.Fatalf("first query should be a cache miss, got %q", resp.Cache)
	}
	if resp.Strategy != subgraphmr.StrategyBucketOriented.String() {
		t.Fatalf("strategy %q", resp.Strategy)
	}
}

// TestPlanCacheHitAndKeying checks the cache behavior end to end: a
// repeated query is a hit, a query differing in any execution-relevant
// option is a separate entry (miss), and counts are identical either way.
func TestPlanCacheHitAndKeying(t *testing.T) {
	s, ts := testServer(t, Config{})
	base := ts.URL + "/query?graph=gnm&sample=triangle&strategy=bucket&k=64"

	var first, second, third queryResponse
	getJSON(t, base, &first)
	r2 := getJSON(t, base, &second)
	if second.Cache != "hit" {
		t.Fatalf("repeat query: cache=%q, want hit", second.Cache)
	}
	if h := r2.Header.Get("X-Sgmr-Cache"); h != "hit" {
		t.Fatalf("X-Sgmr-Cache=%q, want hit", h)
	}
	if first.Count != second.Count {
		t.Fatalf("cached plan changed the count: %d vs %d", first.Count, second.Count)
	}
	// A different option must not alias the cached entry.
	getJSON(t, base+"&seed=11", &third)
	if third.Cache != "miss" {
		t.Fatalf("option change aliased the cache entry: cache=%q", third.Cache)
	}
	if got := s.cache.Misses(); got != 2 {
		t.Fatalf("misses=%d, want 2", got)
	}
	if got := s.cache.Hits(); got != 1 {
		t.Fatalf("hits=%d, want 1", got)
	}
	if rate := s.cache.HitRate(); rate <= 0 {
		t.Fatalf("hit rate %f", rate)
	}
}

// TestTriBucketIsBucket pins the strategy=tri-bucket alias: Section 2.3's
// triangle algorithm is the bucket-oriented job at p = 3, so the query
// resolves to the bucket-oriented plan — the same count, and the plan cache
// entry strategy=bucket filled.
func TestTriBucketIsBucket(t *testing.T) {
	s, ts := testServer(t, Config{})
	base := ts.URL + "/query?graph=gnm&sample=triangle&k=64&strategy="
	var bucket, alias queryResponse
	getJSON(t, base+"bucket", &bucket)
	if r := getJSON(t, base+"tri-bucket", &alias); r.StatusCode != http.StatusOK {
		t.Fatalf("strategy=tri-bucket: status %d", r.StatusCode)
	}
	if alias.Count != bucket.Count || alias.Count != subgraphmr.CountTriangles(subgraphmr.Gnm(120, 500, 9)) {
		t.Errorf("strategy=tri-bucket counted %d, strategy=bucket %d", alias.Count, bucket.Count)
	}
	if alias.Cache != "hit" || s.cache.Hits() != 1 || s.cache.Misses() != 1 {
		t.Errorf("strategy=tri-bucket after strategy=bucket: cache=%q, %d hits, %d misses; want the bucket plan's hit",
			alias.Cache, s.cache.Hits(), s.cache.Misses())
	}
	if alias.Strategy != subgraphmr.StrategyBucketOriented.String() {
		t.Errorf("strategy=tri-bucket ran %q", alias.Strategy)
	}
}

// TestQueryInstancesAndLimit exercises instance materialization in the
// JSON body with truncation.
func TestQueryInstancesAndLimit(t *testing.T) {
	_, ts := testServer(t, Config{})
	var resp queryResponse
	getJSON(t, ts.URL+"/query?graph=gnm&sample=triangle&strategy=tri-bucket&instances=1&limit=3", &resp)
	if len(resp.Instances) != 3 {
		t.Fatalf("got %d instances, want 3", len(resp.Instances))
	}
	if !resp.Truncated {
		t.Fatal("limit below count must mark the body truncated")
	}
	for _, phi := range resp.Instances {
		if len(phi) != 3 {
			t.Fatalf("bad instance %v", phi)
		}
	}
}

// TestQueryErrors pins the error statuses: unknown graph 404, unknown
// sample / bad options / planning failures 400.
func TestQueryErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/query?graph=nope&sample=triangle", http.StatusNotFound},
		{"/query?graph=gnm&sample=heptadecagon", http.StatusBadRequest},
		{"/query?graph=gnm&sample=triangle&strategy=warp", http.StatusBadRequest},
		{"/query?graph=gnm&sample=triangle&k=banana", http.StatusBadRequest},
		{"/query?graph=gnm&sample=square&strategy=tri-partition", http.StatusBadRequest}, // triangle-only strategy
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}
}

// TestStrategyParamIsTheTable: strategy= accepts exactly the names of the
// library's strategy table, and the 400 for anything else spells them out.
func TestStrategyParamIsTheTable(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, name := range subgraphmr.StrategyNames() {
		var resp queryResponse
		if r := getJSON(t, ts.URL+"/query?graph=gnm&sample=triangle&k=64&strategy="+name, &resp); r.StatusCode != http.StatusOK {
			t.Errorf("strategy=%s: status %d", name, r.StatusCode)
		}
		want, err := subgraphmr.ParseStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		if want != subgraphmr.StrategyAuto && resp.Strategy != want.String() {
			t.Errorf("strategy=%s ran %q, want %q", name, resp.Strategy, want)
		}
	}
	// A display name is not a parameter value.
	var qe queryError
	if r := getJSON(t, ts.URL+"/query?graph=gnm&sample=triangle&strategy=bucket-oriented", &qe); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("strategy=bucket-oriented: status %d, want 400", r.StatusCode)
	}
	for _, name := range subgraphmr.StrategyNames() {
		if !strings.Contains(qe.Error, name) {
			t.Errorf("400 body %q does not list %q", qe.Error, name)
		}
	}
}

// TestStreamNDJSON checks the streaming shape: one instance per line,
// then a summary line whose count matches the number of lines.
func TestStreamNDJSON(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query?graph=gnm&sample=triangle&strategy=bucket&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var instances int64
	var summary *streamLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Count != nil:
			summary = &line
		default:
			if len(line.Instance) != 3 {
				t.Fatalf("bad instance %v", line.Instance)
			}
			instances++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("no summary line")
	}
	if *summary.Count != instances {
		t.Fatalf("summary count %d, streamed %d lines", *summary.Count, instances)
	}
	if instances == 0 {
		t.Fatal("streamed nothing")
	}
}

// TestStreamDisconnectTearsDownEngine is the cancellation satellite: a
// client that reads a few streamed instances and walks away must tear the
// whole engine down — the request context cancels (or the next write
// fails), Stream unwinds, and no engine goroutines outlive the request.
func TestStreamDisconnectTearsDownEngine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := subgraphmr.CompleteGraph(40) // 9880 triangles: cannot finish before we disconnect
	s := New(Config{Graphs: map[string]*subgraphmr.Graph{"k40": g}})
	ts := httptest.NewServer(s.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/query?graph=k40&sample=triangle&strategy=tri-bucket&stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a handful of lines — backpressure guarantees the enumeration is
	// mid-flight — then vanish.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 5 && sc.Scan(); i++ {
	}
	cancel()
	resp.Body.Close()

	ts.Close() // waits for the handler to return
	s.Close()
	http.DefaultClient.CloseIdleConnections()
	waitForGoroutines(t, baseline)

	// The abandoned query ends down exactly one of two races: the request
	// context cancels the engine (counted cancelled), or the next NDJSON
	// write fails and yield stops the enumeration early with a nil error
	// (counted ok). Either way it must be accounted exactly once — and it
	// must not be an error.
	s.stats.Flush()
	got := s.stats.Total("sgmr.queries.cancelled") + s.stats.Total("sgmr.queries.ok")
	if got != 1 {
		t.Errorf("cancelled+ok = %v, want 1", got)
	}
	if e := s.stats.Total("sgmr.queries.errors"); e != 0 {
		t.Errorf("errors = %v, want 0", e)
	}
}

// waitForGoroutines polls until the goroutine count returns to the
// baseline (engine teardown is prompt but asynchronous).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not return to baseline %d (now %d)\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAdmissionRejectionUnderTinyPool exhausts a 1-byte, no-queue pool and
// asserts the next query is rejected with 429 and counted — then runs
// after the pool is released.
func TestAdmissionRejectionUnderTinyPool(t *testing.T) {
	s, ts := testServer(t, Config{PoolBytes: 1, MaxQueue: -1})
	release, err := s.pool.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/query?graph=gnm&sample=triangle&strategy=bucket")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if s.pool.Rejected() != 1 {
		t.Fatalf("rejected=%d, want 1", s.pool.Rejected())
	}
	s.stats.Flush()
	if got := s.stats.Total("sgmr.queries.rejected"); got != 1 {
		t.Fatalf("rejected counter %v, want 1", got)
	}

	// Releasing the pool lets the same query through.
	release()
	var ok queryResponse
	r := getJSON(t, ts.URL+"/query?graph=gnm&sample=triangle&strategy=bucket", &ok)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d", r.StatusCode)
	}
	if ok.Count == 0 {
		t.Fatal("post-release query returned no result")
	}
}

// TestAdmissionQueueing proves a query queues while the pool is held and
// proceeds once it is released (rather than being rejected).
func TestAdmissionQueueing(t *testing.T) {
	s, ts := testServer(t, Config{PoolBytes: 1, MaxQueue: 4})
	release, err := s.pool.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		resp queryResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		r, err := http.Get(ts.URL + "/query?graph=gnm&sample=triangle&strategy=bucket")
		if err != nil {
			o.err = err
		} else {
			o.err = json.NewDecoder(r.Body).Decode(&o.resp)
			r.Body.Close()
		}
		done <- o
	}()
	// The query must be parked in the admission queue, not running.
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })
	select {
	case <-done:
		t.Fatal("query completed while the pool was exhausted")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.resp.Count == 0 {
		t.Fatal("queued query returned no result after release")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsEndpoint drives a few queries and checks the catalog renders
// the counters, cache and admission series.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	for i := 0; i < 2; i++ {
		var resp queryResponse
		getJSON(t, ts.URL+"/query?graph=gnm&sample=triangle&strategy=bucket", &resp)
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	text := string(body)
	for _, want := range []string{
		"sgmr.queries 2",
		"sgmr.queries.ok 2",
		"sgmr.plan_cache.hits 1",
		"sgmr.plan_cache.misses 1",
		"sgmr.plan_cache.hit_rate 0.5",
		"sgmr.admission.admitted 2",
		"sgmr.admission.rejected 0",
		"sgmr.admission.queue_depth 0",
		"sgmr.engine.pairs_shipped",
		"sgmr.query.latency_ms.count 2",
		"sgmr.instances.delivered",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestGraphsEndpoint lists the loaded graphs with their shapes.
func TestGraphsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	var got map[string]struct{ Nodes, Edges, MaxDegree int }
	getJSON(t, ts.URL+"/graphs", &got)
	info, ok := got["gnm"]
	if !ok {
		t.Fatalf("graphs: %v", got)
	}
	if info.Nodes != 120 || info.Edges != 500 {
		t.Fatalf("graph shape %+v", info)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}
