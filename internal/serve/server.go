package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"subgraphmr"
	"subgraphmr/internal/failpoint"
)

// Config configures a Server. Zero values pick the documented defaults.
type Config struct {
	// Graphs maps a name (the ?graph= parameter, and the graph-identity
	// half of every cache key) to a data graph loaded once at startup.
	// The map is not copied; do not mutate it after New.
	Graphs map[string]*subgraphmr.Graph
	// PoolBytes is the admission pool: the total predicted shuffle
	// footprint concurrently running queries may hold (default 256 MiB).
	PoolBytes int64
	// MaxQueue bounds the admission wait queue; beyond it queries get 429
	// (default 64; negative disables queueing entirely — reject as soon
	// as the pool is exhausted).
	MaxQueue int
	// PlanCacheSize bounds the prepared-plan cache (default 128 plans).
	PlanCacheSize int
	// FlushInterval is the metrics aggregator's flush cadence (default 10s).
	FlushInterval time.Duration
	// MaxBodyInstances caps the instances materialized into one JSON
	// response body (default 1000); streaming responses are unbounded —
	// they never accumulate.
	MaxBodyInstances int
	// QueryTimeout is the per-query deadline, covering admission queueing
	// and execution: a query past it is cancelled (the engine tears down
	// through the context) and answered with 504. 0 disables the deadline.
	QueryTimeout time.Duration
}

// Server is the resident query service: immutable shared graphs, a plan
// cache, an admission pool and a metrics aggregator behind an HTTP mux.
// All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	cache *PlanCache
	pool  *Pool
	stats *Stats
	mux   *http.ServeMux
}

// New builds a Server from cfg and starts its metrics flusher; Close
// stops it.
func New(cfg Config) *Server {
	if cfg.PoolBytes <= 0 {
		cfg.PoolBytes = 256 << 20
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = 128
	}
	if cfg.MaxBodyInstances <= 0 {
		cfg.MaxBodyInstances = 1000
	}
	s := &Server{
		cfg:   cfg,
		cache: NewPlanCache(cfg.PlanCacheSize),
		pool:  NewPool(cfg.PoolBytes, cfg.MaxQueue),
		stats: NewStats(cfg.FlushInterval),
	}
	s.stats.Gauge("sgmr.admission.queue_depth", func() float64 { return float64(s.pool.QueueDepth()) })
	s.stats.Gauge("sgmr.admission.pool_available_bytes", func() float64 { return float64(s.pool.Available()) })
	s.stats.Gauge("sgmr.admission.pool_capacity_bytes", func() float64 { return float64(s.pool.Capacity()) })
	s.stats.Gauge("sgmr.admission.admitted", func() float64 { return float64(s.pool.Admitted()) })
	s.stats.Gauge("sgmr.admission.rejected", func() float64 { return float64(s.pool.Rejected()) })
	s.stats.Gauge("sgmr.plan_cache.entries", func() float64 { return float64(s.cache.Len()) })
	s.stats.Gauge("sgmr.plan_cache.hits", func() float64 { return float64(s.cache.Hits()) })
	s.stats.Gauge("sgmr.plan_cache.misses", func() float64 { return float64(s.cache.Misses()) })
	s.stats.Gauge("sgmr.plan_cache.hit_rate", s.cache.HitRate)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/graphs", s.handleGraphs)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats exposes the metrics aggregator (tests, extra gauges).
func (s *Server) Stats() *Stats { return s.stats }

// Close stops the metrics flusher. In-flight queries are unaffected —
// cancel them via their request contexts (http.Server shutdown does).
func (s *Server) Close() { s.stats.Close() }

// queryError is the JSON error body. Stage and Job are set when the
// failure is a typed engine error, so a spill ENOSPC is distinguishable
// from a worker panic without grepping server logs.
type queryError struct {
	Error string `json:"error"`
	Stage string `json:"stage,omitempty"`
	Job   string `json:"job,omitempty"`
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(queryError{Error: fmt.Sprintf(format, args...)})
}

// failEngine maps an execution failure to a structured 500: an
// *EngineError body carries its stage and job. The service itself stays
// healthy — engine failures are per-query, so /healthz remains green.
func (s *Server) failEngine(w http.ResponseWriter, err error) {
	var ee *subgraphmr.EngineError
	if errors.As(err, &ee) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(queryError{Error: "execution failed: " + ee.Error(), Stage: ee.Stage, Job: ee.Job})
		return
	}
	s.fail(w, http.StatusInternalServerError, "execution failed: %v", err)
}

// queryResponse is the non-streaming JSON response body.
type queryResponse struct {
	Graph     string              `json:"graph"`
	Sample    string              `json:"sample"`
	Strategy  string              `json:"strategy"`
	Count     int64               `json:"count"`
	Cache     string              `json:"cache"` // "hit" or "miss"
	PlanMs    float64             `json:"plan_ms"`
	ExecMs    float64             `json:"exec_ms"`
	Comm      int64               `json:"comm"`
	Instances [][]subgraphmr.Node `json:"instances,omitempty"`
	Truncated bool                `json:"truncated,omitempty"`
}

// parseQueryOptions translates request parameters into Plan options. Only
// execution knobs a client may hold are exposed; host-level knobs (spill
// dir, worker processes) stay server-side.
func parseQueryOptions(r *http.Request) ([]subgraphmr.Option, error) {
	q := r.URL.Query()
	opts := []subgraphmr.Option{}
	strategyName := q.Get("strategy")
	if strategyName == "" {
		strategyName = "auto"
	}
	st, err := subgraphmr.ParseStrategy(strategyName)
	if err != nil {
		return nil, err
	}
	opts = append(opts, subgraphmr.WithStrategy(st))

	intParam := func(name string, apply func(int) subgraphmr.Option) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s=%q", name, v)
			}
			opts = append(opts, apply(n))
		}
		return nil
	}
	if err := intParam("k", subgraphmr.WithTargetReducers); err != nil {
		return nil, err
	}
	if err := intParam("b", subgraphmr.WithBuckets); err != nil {
		return nil, err
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed=%q", v)
		}
		opts = append(opts, subgraphmr.WithSeed(seed))
	}
	if v := q.Get("mem-budget"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad mem-budget=%q", v)
		}
		opts = append(opts, subgraphmr.WithMemoryBudget(b))
	}
	if q.Get("adaptive") == "1" {
		opts = append(opts, subgraphmr.WithAdaptive())
	}
	if v := q.Get("skew-threshold"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad skew-threshold=%q", v)
		}
		opts = append(opts, subgraphmr.WithSkewThreshold(t))
	}
	return opts, nil
}

// handleQuery answers one enumeration query:
//
//	GET /query?graph=g&sample=triangle[&strategy=auto&k=64&b=0&seed=7]
//	    [&mem-budget=N&adaptive=1&skew-threshold=4]
//	    [&instances=1&limit=100]   — include up to limit instances in the body
//	    [&stream=1]                — NDJSON: one instance per line, then the summary
//
// Without k the planner chooses it: 32 per reduce worker of the service's
// engine (1024 beside b or under mem-budget). k is part of the plan-cache
// key in its resolved form, so k=64 and an absent k that resolves to 64
// share one cached plan.
//
// Planning goes through the plan cache (X-Sgmr-Cache: hit|miss), execution
// through admission control (429 when the pool and queue are full) and the
// Instances/Stream machinery under the request context — a client
// disconnect cancels the context and tears the engine down.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// The query context layers the per-query deadline over the request
	// context: a client disconnect and a deadline expiry both cancel the
	// engine, but they are told apart below (r.Context() vs ctx) so only
	// the latter writes a 504.
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	q := r.URL.Query()
	s.stats.Count("sgmr.queries", 1)

	graphName := q.Get("graph")
	g, ok := s.cfg.Graphs[graphName]
	if !ok {
		s.stats.Count("sgmr.queries.errors", 1)
		s.fail(w, http.StatusNotFound, "unknown graph %q (see /graphs)", graphName)
		return
	}
	sampleName := q.Get("sample")
	smp := subgraphmr.NamedSample(sampleName)
	if smp == nil {
		s.stats.Count("sgmr.queries.errors", 1)
		s.fail(w, http.StatusBadRequest, "unknown sample %q", sampleName)
		return
	}
	opts, err := parseQueryOptions(r)
	if err != nil {
		s.stats.Count("sgmr.queries.errors", 1)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Plan, through the cache: the key covers the graph, the sample's
	// normalized form and every execution-relevant option (see QueryKey).
	planStart := time.Now()
	key := subgraphmr.QueryKey(graphName, smp, opts...)
	plan, cached, err := s.cache.Get(key, func() (*subgraphmr.QueryPlan, error) {
		if err := failpoint.Eval(failpoint.ServeCacheFill); err != nil {
			return nil, err
		}
		return subgraphmr.Plan(g, smp, opts...)
	})
	if err != nil {
		s.stats.Count("sgmr.queries.errors", 1)
		// A planner rejection is the client's fault (400); an injected
		// fill failure stands in for infrastructure trouble (500). Either
		// way the failure is not cached — the next request replans.
		if errors.Is(err, failpoint.ErrInjected) {
			s.fail(w, http.StatusInternalServerError, "planning failed: %v", err)
			return
		}
		s.fail(w, http.StatusBadRequest, "planning failed: %v", err)
		return
	}
	planMs := float64(time.Since(planStart).Microseconds()) / 1000
	cacheState := "miss"
	if cached {
		cacheState = "hit"
	}
	w.Header().Set("X-Sgmr-Cache", cacheState)
	w.Header().Set("X-Sgmr-Strategy", plan.Strategy.String())

	// Admission: price the query's predicted reduce-side footprint against
	// the global pool before any engine work starts.
	if err := failpoint.Eval(failpoint.ServeAdmission); err != nil {
		s.stats.Count("sgmr.queries.errors", 1)
		s.fail(w, http.StatusServiceUnavailable, "admission: %v", err)
		return
	}
	release, err := s.pool.Acquire(ctx, plan.Chosen.EstShuffleBytes)
	if err != nil {
		if err == ErrRejected {
			s.stats.Count("sgmr.queries.rejected", 1)
			s.fail(w, http.StatusTooManyRequests, "admission rejected: pool exhausted and queue full (predicted %d bytes)", plan.Chosen.EstShuffleBytes)
			return
		}
		if r.Context().Err() != nil {
			s.stats.Count("sgmr.queries.cancelled", 1) // disconnected while queued
			return
		}
		// Deadline expired while queued: the client is still there, so it
		// gets the 504 rather than silence.
		s.stats.Count("sgmr.queries.timeout", 1)
		s.fail(w, http.StatusGatewayTimeout, "query deadline exceeded while queued for admission (timeout %s)", s.cfg.QueryTimeout)
		return
	}
	defer release()

	execStart := time.Now()
	if q.Get("stream") == "1" {
		s.streamQuery(ctx, w, r, plan, cacheState)
		return
	}

	limit := s.cfg.MaxBodyInstances
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < limit {
			limit = n
		}
	}
	withInstances := q.Get("instances") == "1"

	var collected [][]subgraphmr.Node
	res, err := subgraphmr.Stream(ctx, plan, func(phi []subgraphmr.Node) bool {
		if withInstances && len(collected) < limit {
			collected = append(collected, phi)
		}
		return true
	})
	if err != nil {
		if r.Context().Err() != nil {
			s.stats.Count("sgmr.queries.cancelled", 1)
			return // client is gone; nothing to write
		}
		if ctx.Err() != nil {
			s.stats.Count("sgmr.queries.timeout", 1)
			s.fail(w, http.StatusGatewayTimeout, "query deadline exceeded (timeout %s)", s.cfg.QueryTimeout)
			return
		}
		s.stats.Count("sgmr.queries.errors", 1)
		s.failEngine(w, err)
		return
	}
	execMs := float64(time.Since(execStart).Microseconds()) / 1000
	s.recordResult(res, planMs, execMs)

	resp := queryResponse{
		Graph:    graphName,
		Sample:   sampleName,
		Strategy: plan.Strategy.String(),
		Count:    res.Count,
		Cache:    cacheState,
		PlanMs:   planMs,
		ExecMs:   execMs,
		Comm:     res.TotalComm(),
	}
	if withInstances {
		resp.Instances = collected
		resp.Truncated = int64(len(collected)) < res.Count
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// streamLine is one NDJSON line of a streaming response: instance lines
// first, a final summary line with Count set. A failed run ends with an
// Error line instead (Stage/Job set for typed engine errors) — the client
// must treat any already-received instances as partial and discard them.
type streamLine struct {
	Instance []subgraphmr.Node `json:"instance,omitempty"`
	Count    *int64            `json:"count,omitempty"`
	Cache    string            `json:"cache,omitempty"`
	Error    string            `json:"error,omitempty"`
	Stage    string            `json:"stage,omitempty"`
	Job      string            `json:"job,omitempty"`
}

// streamQuery delivers instances as NDJSON at the consumer's pace: each
// write rides the engine's backpressured yield, a failed write (client
// disconnect) stops the enumeration, and ctx (request context plus the
// per-query deadline) cancels it from the transport side.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, r *http.Request, plan *subgraphmr.QueryPlan, cacheState string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	start := time.Now()
	res, err := subgraphmr.Stream(ctx, plan, func(phi []subgraphmr.Node) bool {
		if err := enc.Encode(streamLine{Instance: phi}); err != nil {
			return false // client is gone; tear the engine down
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
	if err != nil {
		if r.Context().Err() != nil {
			s.stats.Count("sgmr.queries.cancelled", 1)
			return
		}
		if ctx.Err() != nil {
			// Mid-stream the status line is already out; the deadline is
			// reported as the terminal NDJSON line instead of a 504.
			s.stats.Count("sgmr.queries.timeout", 1)
			enc.Encode(streamLine{Error: fmt.Sprintf("query deadline exceeded (timeout %s)", s.cfg.QueryTimeout)})
			return
		}
		s.stats.Count("sgmr.queries.errors", 1)
		line := streamLine{Error: err.Error()}
		var ee *subgraphmr.EngineError
		if errors.As(err, &ee) {
			line.Stage, line.Job = ee.Stage, ee.Job
		}
		enc.Encode(line)
		return
	}
	s.recordResult(res, 0, float64(time.Since(start).Microseconds())/1000)
	enc.Encode(streamLine{Count: &res.Count, Cache: cacheState})
	if flusher != nil {
		flusher.Flush()
	}
}

// recordResult exports one completed query's engine metrics into the
// aggregator — the Metrics catalog the service publishes at /metrics.
func (s *Server) recordResult(res *subgraphmr.Result, planMs, execMs float64) {
	s.stats.Count("sgmr.queries.ok", 1)
	s.stats.Count("sgmr.instances.delivered", float64(res.Count))
	var m subgraphmr.Metrics
	for _, job := range res.Jobs {
		m.Add(job.Metrics)
		if job.Replanned {
			s.stats.Count("sgmr.engine.replans", 1)
		}
		if job.ObservedSkew > 0 {
			s.stats.Observe("sgmr.engine.skew", job.ObservedSkew)
		}
	}
	s.stats.Count("sgmr.engine.pairs_shipped", float64(m.KeyValuePairs))
	s.stats.Count("sgmr.engine.reducer_work", float64(m.ReducerWork))
	s.stats.Count("sgmr.engine.spilled_pairs", float64(m.SpilledPairs))
	s.stats.Count("sgmr.engine.spill_bytes", float64(m.SpillBytes))
	if planMs > 0 {
		s.stats.Observe("sgmr.query.plan_ms", planMs)
	}
	s.stats.Observe("sgmr.query.latency_ms", execMs)
}

// handleMetrics renders the full catalog as "name value" text lines.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.stats.Render())
}

// handleGraphs lists the loaded graphs.
func (s *Server) handleGraphs(w http.ResponseWriter, _ *http.Request) {
	type info struct {
		Nodes, Edges, MaxDegree int
	}
	out := make(map[string]info, len(s.cfg.Graphs))
	names := make([]string, 0, len(s.cfg.Graphs))
	for name, g := range s.cfg.Graphs {
		out[name] = info{Nodes: g.NumNodes(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree()}
		names = append(names, name)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
