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
// materializing Result.Instances. Calls to yield are serialized and block
// the emitting reduce worker, so delivery is consumer-paced and the
// output never accumulates in memory; the shuffle's grouped intermediate
// state is still built before the first delivery, so bound it with
// WithMemoryBudget when it may exceed RAM. Returning false from yield
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

// Instances executes a plan as a streaming iterator: instances are
// delivered one at a time at the consumer's pace, so enumerations whose
// output dwarfs memory can be consumed incrementally (the shuffle's
// grouped intermediate state is separate — bound it with WithMemoryBudget
// when it may exceed RAM). Breaking out of the range loop — or cancelling
// ctx — tears the engine down promptly: remaining reducer groups are
// skipped, spill files are removed, and no goroutines are left behind.
// WithCountOnly is ignored — streaming always delivers. A cancelled or
// expired context surfaces as a final iteration with a non-nil error (and
// a nil instance slice).
func Instances(ctx context.Context, p *QueryPlan) iter.Seq2[[]Node, error] {
	return func(yield func([]Node, error) bool) {
		if err := checkRunnable(ctx, p); err != nil {
			yield(nil, err)
			return
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		instances := make(chan []Node) // unbuffered: backpressure to the engine
		errc := make(chan error, 1)
		go func() {
			_, err := Stream(ctx, p, func(phi []Node) bool {
				select {
				case instances <- phi:
					return true
				case <-ctx.Done():
					return false
				}
			})
			errc <- err
			close(instances)
		}()

		for phi := range instances {
			if !yield(phi, nil) {
				// Early break: tear down the engine and wait for it so no
				// goroutines or spill files outlive the loop.
				cancel()
				for range instances {
				}
				<-errc
				return
			}
		}
		if err := <-errc; err != nil {
			yield(nil, err)
		}
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
