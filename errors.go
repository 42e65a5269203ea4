package subgraphmr

import "subgraphmr/internal/mapreduce"

// EngineError is the typed failure surfaced by Run, Stream and Instances
// when the engine itself fails mid-query: spill I/O errors (e.g. ENOSPC
// under a budgeted cascade), recovered map/reduce worker panics, and injected
// faults. Stage names the failing layer ("map", "reduce", "spill"), Job the
// failing round, and Cause the underlying error — reachable through
// errors.As / errors.Is, so callers can still detect syscall.ENOSPC or a
// specific sentinel underneath:
//
//	res, err := subgraphmr.Run(ctx, plan)
//	var ee *subgraphmr.EngineError
//	if errors.As(err, &ee) {
//	    log.Printf("engine failed at %s (job %s): %v", ee.Stage, ee.Job, ee.Cause)
//	}
//
// Context cancellation is not an EngineError — a cancelled run returns
// ctx.Err() unwrapped. On any error the engine guarantees clean teardown:
// worker goroutines joined, spill files removed, spawned worker processes
// reaped; there is no partial result to consume (Run returns a nil Result,
// and a Stream consumer must discard instances delivered before the error).
type EngineError = mapreduce.EngineError
