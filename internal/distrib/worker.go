package distrib

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"subgraphmr/internal/graph"
)

// Executor runs one JobRequest against the already-decoded replicated
// graph, streaming instances into emit (serialized; returning false stops
// the run early; each instance is emit's to keep) and returning the
// committed stats. The root package injects its strategy dispatch here,
// which keeps distrib free of a dependency cycle on the public API.
type Executor func(ctx context.Context, g *graph.Graph, req *JobRequest, emit func([]graph.Node) bool) (*JobResult, error)

// instanceBatch is the number of instances a worker buffers per
// frameInstances frame.
const instanceBatch = 512

// stallProbe is how often a fault-stalled worker probes its connection for
// closure, and stallLimit caps the stall so an abandoned worker process
// never hangs forever.
const (
	stallProbe = 25 * time.Millisecond
	stallLimit = 60 * time.Second
)

// Serve accepts coordinator connections on ln and executes their jobs with
// exec until ctx is cancelled (or ln fails). Each connection is handled by
// one goroutine, its jobs strictly sequential; Serve returns after every
// in-flight connection has wound down.
func Serve(ctx context.Context, ln net.Listener, exec Executor) error {
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close() // unblock Accept
		case <-done:
		}
	}()

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			handleConn(ctx, conn, exec)
		}()
	}
}

// handleConn runs one coordinator connection: a frameGraph installs the
// replicated graph, then each frameJob executes and answers with instance
// frames and a terminal frameDone (or frameError). Worker-side failures are
// reported in-band where possible; transport failures just drop the
// connection — the coordinator treats both as a dead worker and retries the
// partitions elsewhere.
func handleConn(ctx context.Context, conn net.Conn, exec Executor) {
	br := bufio.NewReader(conn)
	var g *graph.Graph
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return // EOF or transport error: coordinator is gone
		}
		switch typ {
		case frameGraph:
			g, err = DecodeGraph(payload)
			if err != nil {
				writeFrame(conn, frameError, []byte(err.Error()))
				return
			}
		case framePing:
			// Coordinator health probe between jobs; any write failure
			// drops the connection, which the prober reads as dead.
			if err := writeFrame(conn, framePong, nil); err != nil {
				return
			}
		case frameJob:
			var req JobRequest
			if err := decodeGob(payload, &req); err != nil {
				writeFrame(conn, frameError, []byte(err.Error()))
				return
			}
			if g == nil {
				writeFrame(conn, frameError, []byte("distrib: job before graph"))
				return
			}
			if err := runJob(ctx, conn, g, &req, exec); err != nil {
				return
			}
		default:
			writeFrame(conn, frameError, []byte(fmt.Sprintf("distrib: unexpected frame type %d", typ)))
			return
		}
	}
}

// errConnDown marks a transport failure (no point sending frameError).
var errConnDown = errors.New("distrib: connection down")

func runJob(ctx context.Context, conn net.Conn, g *graph.Graph, req *JobRequest, exec Executor) error {
	var (
		batch   [][]graph.Node
		scratch []byte
		emitted int64
		downErr error
	)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		scratch = appendInstances(scratch[:0], batch)
		if err := writeFrame(conn, frameInstances, scratch); err != nil {
			downErr = err
			return false
		}
		batch = batch[:0]
		return true
	}
	emit := func(phi []graph.Node) bool {
		if ctx.Err() != nil {
			return false
		}
		// Fault injection: past the stall threshold the worker goes silent —
		// no more frames — until the coordinator gives up and closes the
		// connection (observed via a read probe: the protocol is strictly
		// request-response, so nothing else arrives mid-job).
		if req.StallAfter > 0 && emitted >= req.StallAfter {
			stallUntilClosed(ctx, conn)
			downErr = errConnDown
			return false
		}
		batch = append(batch, phi) // emit may keep phi: no copy
		emitted++
		if len(batch) >= instanceBatch {
			return flush()
		}
		return true
	}

	res, err := exec(ctx, g, req, emit)
	if downErr != nil {
		return downErr
	}
	if err != nil {
		if werr := writeFrame(conn, frameError, []byte(err.Error())); werr != nil {
			return werr
		}
		return nil // connection stays usable after an in-band error
	}
	if !flush() {
		return downErr
	}
	payload, err := encodeGob(res)
	if err != nil {
		writeFrame(conn, frameError, []byte(err.Error()))
		return nil
	}
	return writeFrame(conn, frameDone, payload)
}

// stallUntilClosed blocks until the coordinator closes the connection, ctx
// is cancelled, or the stall limit passes.
func stallUntilClosed(ctx context.Context, conn net.Conn) {
	deadline := time.Now().Add(stallLimit)
	var one [1]byte
	for time.Now().Before(deadline) && ctx.Err() == nil {
		conn.SetReadDeadline(time.Now().Add(stallProbe))
		//lint:allow failcover disconnect probe: a read failure IS the success condition (coordinator gone), so an injected error is indistinguishable from the behavior under test
		_, err := conn.Read(one[:])
		if err == nil {
			continue // unexpected mid-job data; keep stalling regardless
		}
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			continue
		}
		return // EOF / reset: coordinator gave up
	}
}
