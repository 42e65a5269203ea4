package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"subgraphmr"
	"subgraphmr/internal/serial"
	"subgraphmr/internal/serve"
)

// scale fixes every input size. "full" is what BENCHMARK.json measures,
// sized so one iteration of the slowest workload stays near a second on
// two cores and every forced-strategy probe finishes in the traced run;
// "tiny" is the smoke-test size.
type scale struct {
	name                 string
	uniformN, uniformM   int     // tri-uniform, tri-uniform-spill: Gnm
	skewN                int     // tri-skew: PowerLaw(skewN, skewDeg, 2.2)
	skewDeg              float64 //
	mixN, mixM           int     // pattern-mix: Gnm
	distN, distM         int     // dist-2w: Gnm
	smallN, smallM       int     // serve-mix "small": Gnm
	midN, midM           int     // serve-mix "mid": Gnm
	spillBudget          int64   // tri-uniform-spill memory budget, bytes
	reducers             int     // serve-mix k for the bucket queries on "small"
	graphProbes          int     // has_edge probes in the graph layer
	minSetups, maxSetups int     // set-up repetitions (median reported)
	minIters, minReqs    int     // floor on timed iterations / requests
	syntheticPairsCap    int64   // cap on the pass-through shuffle probe
	serveWarmReqs        int     // warm requests in the serve layer probe
	cacheProbes          int     // PlanCache.Get / Pool.Acquire probe calls
	plannerReps, runReps int     // repetitions of cheap / expensive probes
}

var scales = map[string]scale{
	"full": {
		name:     "full",
		uniformN: 10000, uniformM: 100000,
		skewN: 6000, skewDeg: 16,
		mixN: 1000, mixM: 5000,
		distN: 2000, distM: 12000,
		smallN: 300, smallM: 1500,
		midN: 2000, midM: 12000,
		spillBudget: 1 << 20, reducers: 64,
		graphProbes: 1000000, minSetups: 5, maxSetups: 25, minIters: 5, minReqs: 100,
		syntheticPairsCap: 2000000, serveWarmReqs: 5, cacheProbes: 100000,
		plannerReps: 20, runReps: 3,
	},
	"tiny": {
		name:     "tiny",
		uniformN: 300, uniformM: 1500,
		skewN: 200, skewDeg: 8,
		mixN: 60, mixM: 180,
		distN: 100, distM: 300,
		smallN: 40, smallM: 120,
		midN: 100, midM: 300,
		spillBudget: 8 << 10, reducers: 16,
		graphProbes: 2000, minSetups: 2, maxSetups: 2, minIters: 2, minReqs: 14,
		syntheticPairsCap: 20000, serveWarmReqs: 2, cacheProbes: 200,
		plannerReps: 2, runReps: 1,
	},
}

// query is one enumeration the harness issues: directly (Plan + Run, or
// Plan + Instances when iterate is set) in the batch workloads, and as the
// HTTP request with parameters params in serve-mix.
type query struct {
	params  string
	g       *subgraphmr.Graph
	sample  string // catalog name of s, as the service's sample= parameter takes it
	s       *subgraphmr.Sample
	opts    []subgraphmr.Option
	iterate bool
	want    int64 // oracle count, filled after set-up
}

func newQuery(g *subgraphmr.Graph, sample string, opts ...subgraphmr.Option) query {
	return query{g: g, sample: sample, s: subgraphmr.NamedSample(sample), opts: opts}
}

// bed is one set-up of a workload: inputs generated, workers and servers
// listening. A batch iteration runs queries in order; serve-mix sends them
// over HTTP on its schedule instead. The layer probes run on queries[0]'s
// graph and sample under engineOpts.
type bed struct {
	queries    []query
	engineOpts []subgraphmr.Option
	serve      *serveBed
	stops      []func()
}

func (b *bed) close() {
	for i := len(b.stops) - 1; i >= 0; i-- {
		b.stops[i]()
	}
	b.stops = nil
}

// workload is one set of inputs; BENCHMARK.json and README.md record why
// each was chosen.
type workload struct {
	name  string
	setup func(e *env) (*bed, error)
}

// subSeed derives the generator seed of a workload's i-th graph from the
// command-line seed, so no two graphs of one run share a stream.
func subSeed(seed int64, i int) int64 { return seed*7919 + int64(i) }

var workloads = []workload{
	{
		name: "tri-uniform",
		setup: func(e *env) (*bed, error) {
			g := subgraphmr.Gnm(e.scale.uniformN, e.scale.uniformM, subSeed(e.seed, 0))
			return &bed{queries: []query{newQuery(g, "triangle", subgraphmr.WithCountOnly())}}, nil
		},
	},
	{
		name: "tri-skew",
		setup: func(e *env) (*bed, error) {
			g := subgraphmr.PowerLaw(e.scale.skewN, e.scale.skewDeg, 2.2, subSeed(e.seed, 0))
			q := newQuery(g, "triangle")
			q.iterate = true
			return &bed{queries: []query{q}}, nil
		},
	},
	{
		name: "pattern-mix",
		setup: func(e *env) (*bed, error) {
			g := subgraphmr.Gnm(e.scale.mixN, e.scale.mixM, subSeed(e.seed, 0))
			return &bed{queries: []query{
				newQuery(g, "square"),
				newQuery(g, "lollipop", subgraphmr.WithStrategy(subgraphmr.StrategyVariableOriented)),
				newQuery(g, "square", subgraphmr.WithStrategy(subgraphmr.StrategyCQOriented)),
			}}, nil
		},
	},
	{
		name: "tri-uniform-spill",
		setup: func(e *env) (*bed, error) {
			g := subgraphmr.Gnm(e.scale.uniformN, e.scale.uniformM, subSeed(e.seed, 0))
			engine := []subgraphmr.Option{subgraphmr.WithMemoryBudget(e.scale.spillBudget), subgraphmr.WithSpillDir(e.spillDir)}
			return &bed{engineOpts: engine, queries: []query{
				newQuery(g, "triangle", append([]subgraphmr.Option{subgraphmr.WithCountOnly()}, engine...)...)}}, nil
		},
	},
	{
		name: "dist-2w",
		setup: func(e *env) (*bed, error) {
			g := subgraphmr.Gnm(e.scale.distN, e.scale.distM, subSeed(e.seed, 0))
			addrs, stop, err := startWorkers(2)
			if err != nil {
				return nil, err
			}
			return &bed{stops: []func(){stop}, queries: []query{newQuery(g, "lollipop", subgraphmr.WithWorkers(addrs))}}, nil
		},
	},
	{
		name:  "serve-mix",
		setup: setupServeMix,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serveBed is the resident service of serve-mix and its request order.
type serveBed struct {
	url      string
	client   *http.Client
	schedule []int // indices into bed.queries, walked cyclically
}

// serveClients is the closed loop's size: callers of the service are
// programs that wait for their reply, one per core of the sandbox.
const serveClients = 2

func setupServeMix(e *env) (*bed, error) {
	small := subgraphmr.Gnm(e.scale.smallN, e.scale.smallM, subSeed(e.seed, 0))
	mid := subgraphmr.Gnm(e.scale.midN, e.scale.midM, subSeed(e.seed, 1))
	graphs := map[string]*subgraphmr.Graph{"small": small, "mid": mid}
	// served is a mix entry: the request parameters and the Plan options
	// that mean the same, kept side by side so the two cannot drift.
	served := func(graph, sample, extra string, opts ...subgraphmr.Option) query {
		q := newQuery(graphs[graph], sample, opts...)
		q.params = "graph=" + graph + "&sample=" + sample + extra
		return q
	}
	bucketK := []subgraphmr.Option{subgraphmr.WithStrategy(subgraphmr.StrategyBucketOriented), subgraphmr.WithTargetReducers(e.scale.reducers)}
	kParam := fmt.Sprintf("&strategy=bucket&k=%d", e.scale.reducers)
	mix := []query{
		served("mid", "triangle", "&instances=1"),
		served("mid", "triangle", "&stream=1"),
		served("small", "triangle", "&strategy=tri-bucket", subgraphmr.WithStrategy(subgraphmr.StrategyTriangleBucketOrdered)),
		served("small", "square", kParam, bucketK...),
		served("small", "lollipop", kParam, bucketK...),
		served("small", "triangle", "&strategy=variable", subgraphmr.WithStrategy(subgraphmr.StrategyVariableOriented)),
		served("small", "square", "&strategy=cq", subgraphmr.WithStrategy(subgraphmr.StrategyCQOriented)),
	}
	// The schedule is blocks of the mix, each block a seeded permutation:
	// every seed sends the same share of each query, in a different order.
	rng := rand.New(rand.NewSource(subSeed(e.seed, 2)))
	var schedule []int
	for block := 0; block < 100; block++ {
		schedule = append(schedule, rng.Perm(len(mix))...)
	}
	sb, stop, err := startServer(graphs)
	if err != nil {
		return nil, err
	}
	sb.schedule = schedule
	return &bed{queries: mix, serve: sb, stops: []func(){stop}}, nil
}

// startServer puts serve.New behind a loopback net/http server with the
// default pool and queue, so a 429 is a failure of the system under test.
func startServer(graphs map[string]*subgraphmr.Graph) (*serveBed, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listening for the query service: %w", err)
	}
	srv := serve.New(serve.Config{Graphs: graphs})
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
	stop := func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
		srv.Close()
	}
	return &serveBed{url: "http://" + ln.Addr().String(), client: &http.Client{Transport: transport}}, stop, nil
}

// startWorkers runs n distributed workers on loopback listeners inside
// this process; stop cancels them and waits until every one has returned.
func startWorkers(n int) ([]string, func(), error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	stop := func() { cancel(); wg.Wait() }
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("listening for worker %d: %w", i, err)
		}
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			subgraphmr.ServeWorker(ctx, ln) // returns ctx.Err() on stop
		}()
	}
	return addrs, stop, nil
}

func isTriangle(s *subgraphmr.Sample) bool { return s.P() == 3 && len(s.Edges()) == 3 }

// oracle counts the instances of s in g with the single-threaded serial
// algorithms, which share no code with the map-reduce path, and returns
// the serial work beside the count (the convertibility baseline, §6).
func oracle(g *subgraphmr.Graph, s *subgraphmr.Sample) (count, work int64, err error) {
	if isTriangle(s) {
		work = serial.Triangles(g, func(_, _, _ subgraphmr.Node) { count++ })
		return count, work, nil
	}
	instances, work, err := serial.EnumerateBoundedDegree(g, s)
	if err != nil {
		return 0, 0, fmt.Errorf("serial oracle: %w", err)
	}
	return int64(len(instances)), work, nil
}
