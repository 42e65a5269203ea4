package subgraphmr

import (
	"context"
	"fmt"
	"iter"
)

// Run executes a plan and materializes its result: every instance of the
// plan's sample in its data graph, exactly once, plus unified per-job
// statistics — the same Result shape for all strategies, triangle
// algorithms and the two-round cascade included. Cancelling ctx aborts the
// running jobs (engine workers wind down, spill runs are removed) and
// returns ctx.Err(). Under WithCountOnly, Result.Instances stays nil and
// Result.Count is still exact.
func Run(ctx context.Context, p *QueryPlan) (*Result, error) {
	if err := checkRunnable(ctx, p); err != nil {
		return nil, err
	}
	// Materializing is this function's business alone: every strategy
	// delivers into a sink, and Run's sink collects. WithCountOnly is
	// simply no sink.
	var (
		instances [][]Node
		sink      func([]Node) bool
	)
	if !p.opts.countOnly {
		sink = func(phi []Node) bool {
			instances = append(instances, phi)
			return true
		}
	}
	res, err := execute(ctx, p, sink)
	if err != nil {
		return nil, err
	}
	res.Instances = instances
	return res, nil
}

// Stream executes a plan, delivering each instance to yield instead of
// materializing Result.Instances. Each instance slice is yield's to keep:
// nothing reuses or writes it after the call, and appending to it never
// writes into another instance. Calls to yield are serialized and block
// the emitting reduce worker, so delivery is consumer-paced and the
// output never accumulates in memory; the shuffle's grouped intermediate
// state is still built before the first delivery (for the cascade, that
// state holds the whole wedge relation, which exists nowhere else — bound
// it with WithMemoryBudget when it may exceed RAM). Returning false from yield
// stops the enumeration early with a nil error (remaining reducer groups
// are skipped); cancelling ctx aborts it with ctx.Err(). WithCountOnly is
// ignored — streaming always delivers. The returned Result carries the
// (possibly partial) job metrics and Count — the number of instances
// yield accepted.
func Stream(ctx context.Context, p *QueryPlan, yield func([]Node) bool) (*Result, error) {
	if err := checkRunnable(ctx, p); err != nil {
		return nil, err
	}
	if yield == nil {
		return nil, fmt.Errorf("subgraphmr: Stream requires a non-nil yield")
	}
	return execute(ctx, p, yield)
}

// execute runs a plan into sink (nil counts) wherever its options say:
// across worker processes, or in this one.
func execute(ctx context.Context, p *QueryPlan, sink func([]Node) bool) (*Result, error) {
	if p.opts.isDistributed() {
		return runDistributed(ctx, p, sink)
	}
	return runLocal(ctx, p, sink)
}

// Instances executes a plan as a streaming iterator. Delivery is
// consumer-paced, with at most one batch of at most 256 instances in
// flight: the engine fills the next batch while the range loop consumes
// the last, then waits. The first batch holds a single instance, so the
// first result is not held back. Enumerations whose output dwarfs memory
// can thus be consumed incrementally (the shuffle's grouped intermediate
// state is separate — for the cascade it holds the whole wedge relation,
// which exists nowhere else; bound it with WithMemoryBudget when it may
// exceed RAM). Each instance is the caller's to keep. Breaking out of the range loop — or cancelling ctx — tears the
// engine down promptly: remaining reducer groups are skipped, spill files
// are removed, and no goroutines are left behind. WithCountOnly is ignored
// — streaming always delivers. A failure, or a cancelled or expired
// context, surfaces as a final iteration with a non-nil error (and a nil
// instance slice); a failure comes after every instance delivered before
// it.
func Instances(ctx context.Context, p *QueryPlan) iter.Seq2[[]Node, error] {
	return func(yield func([]Node, error) bool) {
		if err := checkRunnable(ctx, p); err != nil {
			yield(nil, err)
			return
		}
		bridge(ctx, func(ctx context.Context, sink func([]Node) bool) error {
			_, err := Stream(ctx, p, sink)
			return err
		}, yield)
	}
}

// maxBatch is the most instances one bridge batch carries.
const maxBatch = 256

// bridge runs produce on its own goroutine and hands what it delivers to
// yield in order, then its error, if any. Instances cross in batches — 1,
// 2, 4, … up to maxBatch of them — so a hand-off costs one goroutine switch
// per batch, not per instance, and the first instance crosses alone.
// produce runs at most one batch ahead: it fills the next batch while
// yield consumes the last, then blocks. A batch yield has finished with
// goes back to produce through a two-slot free list, so steady streaming
// allocates no containers. Two slots, because yield can finish a batch
// before produce has taken the one returned before it: engine outputs
// arrive in bursts (see mapreduce's outbox), and with one slot that race
// dropped about a third of the returned batches on a power-law graph's
// Instances loop. Once yield returns false, bridge cancels
// produce's context and returns only after produce has.
func bridge(ctx context.Context, produce func(context.Context, func([]Node) bool) error, yield func([]Node, error) bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	batches := make(chan [][]Node) // unbuffered: backpressure to the engine
	free := make(chan [][]Node, 2)
	errc := make(chan error, 1)
	go func() {
		batch := make([][]Node, 0, 1)
		send := func() bool {
			select {
			case batches <- batch:
			case <-ctx.Done():
				return false
			}
			size := min(2*cap(batch), maxBatch)
			select {
			case batch = <-free:
				if cap(batch) >= size {
					return true
				}
			default:
			}
			batch = make([][]Node, 0, size)
			return true
		}
		err := produce(ctx, func(phi []Node) bool {
			batch = append(batch, phi)
			return len(batch) < cap(batch) || send()
		})
		if len(batch) > 0 {
			send() // the instances delivered before produce returned
		}
		errc <- err
		close(batches)
	}()

	for batch := range batches {
		for _, phi := range batch {
			if !yield(phi, nil) {
				// Early break: tear down the engine and wait for it so no
				// goroutines or spill files outlive the loop.
				cancel()
				for range batches {
				}
				<-errc
				return
			}
		}
		clear(batch)
		select {
		case free <- batch[:0]:
		default:
		}
	}
	if err := <-errc; err != nil {
		yield(nil, err)
	}
}

func checkRunnable(ctx context.Context, p *QueryPlan) error {
	if p == nil || p.graph == nil || p.sample == nil {
		return fmt.Errorf("subgraphmr: nil or incomplete plan (build it with Plan)")
	}
	if ctx == nil {
		return fmt.Errorf("subgraphmr: nil context")
	}
	return nil
}
