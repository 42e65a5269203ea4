package mapreduce

import "fmt"

// Stages of EngineError: the engine layer where a job failed.
const (
	// StageMap is a failure inside a map worker (a recovered mapper panic
	// or an injected fault at the mr.map failpoint).
	StageMap = "map"
	// StageReduce is a failure inside a reduce worker outside the spill
	// path (a recovered reducer panic or an injected fault at mr.reduce).
	StageReduce = "reduce"
	// StageSpill is an external-shuffle failure: creating, writing,
	// merging or decoding spill runs.
	StageSpill = "spill"
)

// EngineError is the typed failure of one engine job. Every error-returning
// entry point (Job.RunStream, BlockJob.RunStream, and everything the root
// API layers on top — Run, Stream, Instances) surfaces internal failures as *EngineError:
// spill I/O errors, recovered map/reduce worker panics, and injected
// faults. Stage names the failing layer (StageMap, StageReduce,
// StageSpill), Job the Job.Name when set, and Cause the underlying error —
// reachable through errors.Is/errors.As, so callers can still detect e.g.
// syscall.ENOSPC or failpoint.ErrInjected underneath.
//
// Context cancellation is not an EngineError: a cancelled run returns
// ctx.Err() unwrapped. When both happen, the worker failure wins — a real
// fault must not be masked as a cancellation.
type EngineError struct {
	Stage string
	Job   string
	Cause error
}

func (e *EngineError) Error() string {
	if e.Job != "" {
		return fmt.Sprintf("mapreduce: job %s failed at %s: %v", e.Job, e.Stage, e.Cause)
	}
	return fmt.Sprintf("mapreduce: job failed at %s: %v", e.Stage, e.Cause)
}

func (e *EngineError) Unwrap() error { return e.Cause }

// engineErr wraps cause as an *EngineError unless it already is one (the
// spill path wraps at the worker boundary; a cause that carries its own
// stage must not be double-wrapped).
func engineErr(stage, job string, cause error) error {
	if _, ok := cause.(*EngineError); ok {
		return cause
	}
	return &EngineError{Stage: stage, Job: job, Cause: cause}
}
