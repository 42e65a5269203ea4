package mapreduce

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// fanOut is the outbox tests' reducer shape: one group whose reducer emits
// n outputs, counting them in emitted and recording after each emit
// whether the job has stopped; it panics after the last one when boom is
// set, and never polls Stopped itself.
type fanOut struct {
	n       int
	boom    bool
	emitted int
	stopped []bool // after emit i, Context.Stopped()
}

func (f *fanOut) reduce(ctx *Context, emit func(int)) {
	for i := 1; i <= f.n; i++ {
		f.emitted++
		emit(i)
		f.stopped = append(f.stopped, ctx.Stopped())
	}
	if f.boom {
		panic("boom")
	}
}

// fanOutKinds are the two job shapes that share one outbox path.
var fanOutKinds = []string{"Job", "BlockJob"}

// runFanOut runs f as a job of the given kind on one partition, so every
// output comes from one worker.
func runFanOut(kind string, f *fanOut, yield func(int) bool) (Metrics, error) {
	cfg := Config{Parallelism: 1, Partitions: 1}
	mapf := func(x int, emit func(int, int)) { emit(0, x) }
	reduce := func(ctx *Context, _ int, _ []int, emit func(int)) { f.reduce(ctx, emit) }
	if kind == "BlockJob" {
		return BlockJob[int, int, int, int]{
			Name: "fan-out", Blocks: 1, Map: mapf, Reduce: reduce,
			Keys: func(yield func(int, []int32)) { yield(0, []int32{0}) },
		}.RunStream(context.Background(), cfg, []int{1}, yield)
	}
	return Job[int, int, int, int]{Name: "fan-out", Map: mapf, Reduce: reduce}.RunStream(context.Background(), cfg, []int{1}, yield)
}

// batchEnd is the last output, 1-based, of the outbox batch holding output
// i: batches run 1, 2, 4, … maxOutBatch, maxOutBatch, …
func batchEnd(i int) int {
	end, size := 0, 1
	for end < i {
		end += size
		size = min(2*size, maxOutBatch)
	}
	return end
}

// TestOutboxFirstOutputCrossesAlone: yield sees the first output while the
// reducer has emitted only that one, and every later output once the batch
// holding it is full — 1, 2, 4, … 256 — or the reducer is done.
func TestOutboxFirstOutputCrossesAlone(t *testing.T) {
	const n = 1000
	for _, kind := range fanOutKinds {
		t.Run(kind, func(t *testing.T) {
			f := &fanOut{n: n}
			yielded := 0
			m, err := runFanOut(kind, f, func(o int) bool {
				yielded++
				if o != yielded {
					t.Errorf("output %d yielded as number %d", o, yielded)
				}
				if want := min(batchEnd(yielded), n); f.emitted != want {
					t.Errorf("output %d yielded with %d emitted, want %d", yielded, f.emitted, want)
				}
				return !t.Failed()
			})
			if t.Failed() {
				return
			}
			if err != nil || yielded != n || m.Outputs != n {
				t.Errorf("err %v, %d yielded, Outputs %d; want nil, %d, %d", err, yielded, m.Outputs, n, n)
			}
		})
	}
}

// TestOutboxFailureAfterDeliveredOutputs: a reducer that fails mid-batch
// still hands on every output it emitted before the failure, in order, and
// only then does the run return the typed error.
func TestOutboxFailureAfterDeliveredOutputs(t *testing.T) {
	for _, n := range []int{1, 5, 300} {
		for _, name := range fanOutKinds {
			f := &fanOut{n: n, boom: true}
			yielded := 0
			_, err := runFanOut(name, f, func(o int) bool {
				yielded++
				if o != yielded {
					t.Errorf("%s, %d outputs: output %d yielded as number %d", name, n, o, yielded)
				}
				return true
			})
			var ee *EngineError
			if !errors.As(err, &ee) || ee.Stage != StageReduce || ee.Job != "fan-out" {
				t.Errorf("%s, %d outputs: error %v, want a reduce-stage *EngineError of job fan-out", name, n, err)
			}
			if yielded != n {
				t.Errorf("%s: %d outputs emitted before the failure, %d yielded", name, n, yielded)
			}
		}
	}
}

// TestOutboxStopDropsLaterOutputs: once yield refuses an output, no output
// after it is yielded — neither the rest of its batch nor any later batch —
// the run returns nil with Outputs counting the accepted ones, and the
// reducer sees Stopped once the batch holding the refused output has been
// handed on.
func TestOutboxStopDropsLaterOutputs(t *testing.T) {
	const n = 1000
	for _, refuse := range []int{1, 5, 300} {
		for _, name := range fanOutKinds {
			baseline := runtime.NumGoroutine()
			f := &fanOut{n: n}
			yielded := 0
			m, err := runFanOut(name, f, func(int) bool {
				yielded++
				return yielded < refuse
			})
			if err != nil || yielded != refuse || m.Outputs != int64(refuse-1) {
				t.Errorf("%s, refused at %d: err %v, yield called %d times, Outputs %d", name, refuse, err, yielded, m.Outputs)
			}
			first := -1
			for i, s := range f.stopped {
				if s {
					first = i + 1
					break
				}
			}
			if want := batchEnd(refuse); first != want {
				t.Errorf("%s, refused at %d: the reducer saw Stopped after emit %d, want %d (its batch's end)", name, refuse, first, want)
			}
			waitForGoroutines(t, baseline)
		}
	}
}
