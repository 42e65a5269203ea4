package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"subgraphmr/internal/core"
	"subgraphmr/internal/graph"
)

// JobRequest tells a worker to execute one plan over its slice of the
// distributed key space. It carries the plan's options value whole and the
// plan's resolved quantities, never re-derived ones, so every worker cuts
// the key space exactly as the coordinator planned. The worker turns
// Options.AdaptiveReplan off — a worker that re-planned mid-run would
// change its reducer keys and desynchronize the ownership filter, so
// distributed execution always runs the static plan — and sets
// Options.Engine.Dist from DistTotal and Owned.
type JobRequest struct {
	// Strategy is the resolved PlanStrategy (the root package's numbering).
	Strategy int
	// Options is the plan's enumeration and engine configuration.
	Options core.Options
	// Buckets is the plan's resolved bucket count (0 for share-based
	// strategies, which derive shares from Options.TargetReducers).
	Buckets int
	// PredictedCommPerEdge carries the plan's cost prediction so worker
	// job statistics label themselves like the local run's would.
	PredictedCommPerEdge float64

	// Sample graph (reconstructed worker-side via sample.New).
	SampleP     int
	SampleEdges [][2]int
	SampleNames []string

	// DistTotal and Owned are the key-space assignment: the worker keeps
	// only pairs whose key hashes into an owned slice out of DistTotal.
	DistTotal int
	Owned     []int

	// StallAfter is the fault-injection hook: a positive value makes the
	// worker stop sending frames after that many instances, simulating a
	// stalled worker so the coordinator's per-frame read deadline fires.
	StallAfter int64
}

// JobResult is a worker's committed outcome for one JobRequest.
type JobResult struct {
	Jobs   []core.JobStats
	Count  int64
	NumCQs int
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// EncodeGraph serializes the replicated data graph for a frameGraph
// payload: uvarint node count, uvarint edge count, then each edge as two
// big-endian uint32s.
func EncodeGraph(numNodes int, edges []graph.Edge) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+8*len(edges))
	buf = binary.AppendUvarint(buf, uint64(numNodes))
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.U))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.V))
	}
	return buf
}

// DecodeGraph reconstructs the graph from an EncodeGraph payload.
func DecodeGraph(payload []byte) (*graph.Graph, error) {
	numNodes, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("distrib: graph payload: bad node count")
	}
	payload = payload[n:]
	numEdges, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("distrib: graph payload: bad edge count")
	}
	payload = payload[n:]
	if numNodes > 1<<31-1 {
		return nil, fmt.Errorf("distrib: graph payload: node count %d out of range", numNodes)
	}
	if uint64(len(payload)) != 8*numEdges {
		return nil, fmt.Errorf("distrib: graph payload: %d bytes for %d edges", len(payload), numEdges)
	}
	edges := make([]graph.Edge, numEdges)
	for i := range edges {
		u := binary.BigEndian.Uint32(payload[8*i:])
		v := binary.BigEndian.Uint32(payload[8*i+4:])
		// Validate endpoints here: graph.FromEdges panics on out-of-range
		// edges, and a corrupt frame must error, not crash the worker.
		if uint64(u) >= numNodes || uint64(v) >= numNodes {
			return nil, fmt.Errorf("distrib: graph payload: edge (%d,%d) out of range [0,%d)", u, v, numNodes)
		}
		edges[i].U = graph.Node(u)
		edges[i].V = graph.Node(v)
	}
	return graph.FromEdges(int(numNodes), edges), nil
}

// appendInstances serializes a batch of instances for a frameInstances
// payload: uvarint batch count, then per instance a uvarint node count and
// that many uvarint node ids (spill-run style length-prefixed records).
//
//lint:hotpath
func appendInstances(dst []byte, batch [][]graph.Node) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for _, phi := range batch {
		dst = binary.AppendUvarint(dst, uint64(len(phi)))
		for _, v := range phi {
			dst = binary.AppendUvarint(dst, uint64(uint32(v)))
		}
	}
	return dst
}

// decodeInstances parses a frameInstances payload. The instances are
// carved from one slab, each capped, so the caller may keep every one.
func decodeInstances(payload []byte) ([][]graph.Node, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("distrib: instance batch: bad count")
	}
	payload = payload[n:]
	if count > uint64(len(payload))+1 {
		return nil, fmt.Errorf("distrib: instance batch: count %d exceeds payload", count)
	}
	batch := make([][]graph.Node, 0, count)
	var slab graph.Slab
	for i := uint64(0); i < count; i++ {
		width, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("distrib: instance batch: bad width")
		}
		payload = payload[n:]
		if width > uint64(len(payload))+1 {
			return nil, fmt.Errorf("distrib: instance batch: width %d exceeds payload", width)
		}
		phi := slab.Take(int(width))
		for j := range phi {
			v, n := binary.Uvarint(payload)
			if n <= 0 {
				return nil, fmt.Errorf("distrib: instance batch: bad node")
			}
			payload = payload[n:]
			phi[j] = graph.Node(uint32(v))
		}
		batch = append(batch, phi)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("distrib: instance batch: %d trailing bytes", len(payload))
	}
	return batch, nil
}
