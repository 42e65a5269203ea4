package subgraphmr

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"subgraphmr/internal/core"
	"subgraphmr/internal/distrib"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
)

// encodedGraph memoizes the distrib wire encoding of a plan's data graph,
// so repeated distributed runs of a cached plan serialize the graph once
// instead of once per Run. Held behind a pointer on QueryPlan: plan copies
// share it, and the Once is never copied after first use.
type encodedGraph struct {
	once sync.Once
	data []byte
}

// distGraphPayload returns the frameGraph payload for the plan's data
// graph, encoding it on first use. Plans not built by Plan (the worker's
// reconstructed plans have no enc) fall back to a direct encoding — they
// never coordinate a cluster, so the memo would be dead weight.
func (p *QueryPlan) distGraphPayload() []byte {
	if p.enc == nil {
		return distrib.EncodeGraph(p.graph.NumNodes(), p.graph.Edges())
	}
	p.enc.once.Do(func() {
		//lint:allow planmutate enc is a Plan-allocated memo slot; the write is sync.Once-guarded and idempotent
		p.enc.data = distrib.EncodeGraph(p.graph.NumNodes(), p.graph.Edges())
	})
	return p.enc.data
}

// Distributed execution routes Run/Stream/Instances through a
// coordinator/worker executor (internal/distrib) with no API change: the
// coordinator slices the distributed key space across worker processes,
// each worker replays the same plan over the replicated graph keeping only
// the reducer keys it owns, and the instance streams are unioned. Every
// strategy emits each instance at exactly one reducer key (the ownership
// filters of Sections 2 and 4), so the union is exactly-once by
// construction — the fault-injection difftests pin this bit-identically
// against local execution.

// FaultMode selects an injectable worker failure for testing distributed
// runs; see the constants.
type FaultMode = distrib.FaultMode

const (
	// FaultNone injects nothing (the zero value).
	FaultNone = distrib.FaultNone
	// FaultKill SIGKILLs the target worker process mid-stream (spawned
	// workers; dialed workers get their connection closed instead).
	FaultKill = distrib.FaultKill
	// FaultDrop closes the coordinator's connection to the target worker
	// mid-stream; the process survives.
	FaultDrop = distrib.FaultDrop
	// FaultStall silences the target worker mid-stream until the
	// coordinator's per-frame read deadline declares it dead.
	FaultStall = distrib.FaultStall
)

// FaultSpec describes one injected worker failure: the mode, the target
// worker index (-1 for kill/drop targets the first worker that streams an
// instance), and how many of its instances to let through first.
type FaultSpec = distrib.Fault

// WithWorkers routes execution through already-listening worker processes
// (started with ServeWorker, e.g. `sgmr -serve-worker`). Unreachable
// addresses degrade the run to the reachable subset; with none reachable
// the plan runs locally. Plan signatures are unchanged — planning stays
// local, only Run/Stream/Instances execution is distributed.
func WithWorkers(addrs []string) Option {
	return func(o *planOpts) { o.workers = append([]string(nil), addrs...) }
}

// WithDistributed spawns n local worker processes by re-executing the
// current binary and routes execution through them; the processes are torn
// down when the run finishes (or is cancelled, or the consumer breaks out
// of Instances). The binary must call MaybeWorkerProcess early in main (or
// TestMain) for the re-exec to become a worker.
func WithDistributed(n int) Option {
	return func(o *planOpts) { o.spawnWorkers = n }
}

// WithWorkerTimeout sets the coordinator's per-frame read deadline: a
// worker that sends nothing for this long is declared dead and its
// partitions are retried on a survivor (default 15s).
func WithWorkerTimeout(d time.Duration) Option {
	return func(o *planOpts) { o.workerTimeout = d }
}

// WithFaultInjection injects one worker failure into a distributed run —
// the hook behind the fault-injection difftests and CI's forced
// worker-kill pass. Production runs leave it unset.
func WithFaultInjection(f FaultSpec) Option {
	return func(o *planOpts) { o.fault = f }
}

func (o planOpts) isDistributed() bool {
	return len(o.workers) > 0 || o.spawnWorkers > 0
}

// ServeWorker serves distributed jobs on ln until ctx is cancelled: each
// coordinator connection ships the replicated graph once, then a sequence
// of jobs, each answered with length-prefixed instance frames and a
// committing done-frame. This is what `sgmr -serve-worker` runs.
func ServeWorker(ctx context.Context, ln net.Listener) error {
	return distrib.Serve(ctx, ln, executeWorkerJob)
}

// MaybeWorkerProcess turns a process spawned by WithDistributed into a
// worker: when the spawn sentinel is set it serves jobs until the parent
// closes its stdin, then reports true (the caller should exit). Call it at
// the top of main or TestMain.
func MaybeWorkerProcess() bool {
	if !distrib.IsSpawnedWorker() {
		return false
	}
	distrib.RunSpawnedWorker(executeWorkerJob)
	return true
}

// executeWorkerJob is the Executor the root package injects into distrib:
// it reconstructs the plan a coordinator shipped and runs it through the
// same runLocal that Run and Stream use, with the ownership filter installed
// so only the owned key-space slices are computed and shipped. Adaptive
// re-planning stays off — a worker that re-planned mid-run would change
// its reducer keys and desynchronize the cluster's ownership filter.
func executeWorkerJob(ctx context.Context, g *graph.Graph, req *distrib.JobRequest, emit func([]graph.Node) bool) (*distrib.JobResult, error) {
	s, err := sample.New(req.SampleP, req.SampleEdges, req.SampleNames...)
	if err != nil {
		return nil, err
	}
	st := PlanStrategy(req.Strategy)
	o := planOpts{strategy: st, core: req.Options}
	o.core.AdaptiveReplan = false
	o.core.Engine.Dist = mapreduce.NewDistFilter(req.DistTotal, req.Owned)
	qs, err := core.CompileCQs(s, o.core)
	if err != nil {
		return nil, fmt.Errorf("subgraphmr: WithCycleCQs: %w", err)
	}
	p := &QueryPlan{
		Strategy: st,
		Chosen:   Candidate{Strategy: st, Viable: true, Buckets: req.Buckets, CommPerEdge: req.PredictedCommPerEdge},
		graph:    g,
		sample:   s,
		qs:       qs,
		opts:     o,
	}
	res, err := runLocal(ctx, p, emit)
	if err != nil {
		return nil, err
	}
	return &distrib.JobResult{Jobs: res.Jobs, Count: res.Count, NumCQs: res.NumCQs}, nil
}

// distKeyPartitions picks the total key-space slice count for a cluster of
// w workers: a few slices per worker, so a failed worker's share is
// retried at sub-worker granularity, capped to keep the per-job gob
// headers small.
func distKeyPartitions(w int) int {
	d := 4 * w
	if d > 64 {
		d = 64
	}
	return d
}

// connectCluster builds the cluster the options describe.
func connectCluster(ctx context.Context, o planOpts) (*distrib.Cluster, error) {
	var (
		cl  *distrib.Cluster
		err error
	)
	if len(o.workers) > 0 {
		cl, err = distrib.Dial(ctx, o.workers)
	} else {
		cl, err = distrib.SpawnLocal(ctx, o.spawnWorkers)
	}
	if err != nil {
		return nil, err
	}
	cl.Timeout = o.workerTimeout
	cl.Fault = o.fault
	return cl, nil
}

// runDistributed is the coordinator: it assigns key-space slices to
// workers, streams their committed instances into yield, merges the
// per-worker job statistics, retries a failed worker's slices on survivors
// (bounded, with backoff), and degrades whatever cannot finish remotely to
// filtered local execution. yield has runLocal's sink contract: nil counts
// the committed instances without delivering them.
func runDistributed(ctx context.Context, p *QueryPlan, yield func([]Node) bool) (*Result, error) {
	cl, err := connectCluster(ctx, p.opts)
	if err != nil {
		// Graceful degradation: with no cluster at all the whole plan runs
		// locally, recorded in the summary entry so the fallback is
		// auditable. (runLocal never reads the worker options, so p runs
		// as it is.)
		res, lerr := runLocal(ctx, p, yield)
		if lerr != nil {
			return nil, lerr
		}
		res.Jobs = append(res.Jobs, JobStats{
			Label: fmt.Sprintf("distributed: degraded to local execution (%v)", err),
		})
		return res, nil
	}
	defer cl.Close()

	w := cl.NumWorkers()
	d := distKeyPartitions(w)
	base := distrib.JobRequest{
		Strategy:             int(p.Strategy),
		Options:              p.opts.core,
		Buckets:              p.Chosen.Buckets,
		PredictedCommPerEdge: p.Chosen.CommPerEdge,
		SampleP:              p.sample.P(),
		SampleEdges:          p.sample.Edges(),
		SampleNames:          p.sample.Names(),
	}
	payload := p.distGraphPayload()

	res := &Result{}
	var jobs []JobStats
	accept := func(phi []Node) bool {
		if yield != nil && !yield(phi) {
			return false
		}
		res.Count++
		return true
	}
	commit := func(batch [][]graph.Node, jr *distrib.JobResult) bool {
		for _, phi := range batch {
			if !accept(phi) {
				return false
			}
		}
		jobs = mergeJobStats(jobs, jr.Jobs)
		if jr.NumCQs > res.NumCQs {
			res.NumCQs = jr.NumCQs
		}
		return true
	}

	summary := func(retried int) JobStats {
		return JobStats{
			Label:             fmt.Sprintf("distributed: %d workers, %d key partitions", w, d),
			RetriedPartitions: retried,
		}
	}
	retried, unfinished, err := cl.Enumerate(ctx, payload, base, d, commit)
	if err == distrib.ErrStopped {
		// The consumer broke out: same contract as Stream's early stop —
		// partial metrics, nil error.
		res.Jobs = append(jobs, summary(retried))
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	if len(unfinished) > 0 {
		// Last-resort degradation: the partitions no worker could finish
		// run locally under the same ownership filter — never the full
		// plan, which would duplicate the committed instances.
		//
		// Copy-before-mutate: p may be executing concurrently on other
		// goroutines (shared cached plan), so the variant configuration is
		// written to a copy, never to p.opts in place.
		retried += len(unfinished)
		lp := *p
		lp.opts.core.AdaptiveReplan = false
		lp.opts.core.Engine.Dist = mapreduce.NewDistFilter(d, unfinished)
		lres, lerr := runLocal(ctx, &lp, accept)
		if lerr != nil {
			return nil, lerr
		}
		jobs = mergeJobStats(jobs, lres.Jobs)
		if lres.NumCQs > res.NumCQs {
			res.NumCQs = lres.NumCQs
		}
	}
	res.Jobs = append(jobs, summary(retried))
	return res, nil
}

// mergeJobStats folds one worker-job's per-round statistics into the
// coordinator's accumulator by round index: every worker runs the same
// rounds (the plan is static), so metrics sum per round — pairs, keys,
// work and outputs add, the max reducer input takes the max — and for the
// single-round filtered strategies the merged totals equal a local run's
// exactly (each key is counted by precisely one owner). Labels and
// predictions are identical across workers; the first commit's are kept.
func mergeJobStats(dst []JobStats, src []JobStats) []JobStats {
	for i, js := range src {
		if i < len(dst) {
			dst[i].Metrics.Add(js.Metrics)
			dst[i].ObservedSkew = dst[i].Metrics.Skew()
		} else {
			dst = append(dst, js)
		}
	}
	return dst
}
