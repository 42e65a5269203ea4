package distrib

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"subgraphmr/internal/graph"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xab}, 3*readChunk+17)}
	for i, p := range payloads {
		typ := frameGraph + byte(i%int(frameTypeMax))
		if err := writeFrame(&buf, typ, p); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, p := range payloads {
		typ, got, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := frameGraph + byte(i%int(frameTypeMax)); typ != want {
			t.Fatalf("frame %d: type %d, want %d", i, typ, want)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch (%d bytes vs %d)", i, len(got), len(p))
		}
	}
	if _, _, err := readFrame(br); err != io.EOF {
		t.Fatalf("at stream end: %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsBadInput(t *testing.T) {
	cases := map[string][]byte{
		"unknown type zero": {0, 0},
		"unknown type high": {frameTypeMax + 1, 0},
		"truncated header":  {frameGraph},
		"truncated payload": {frameGraph, 5, 'a', 'b'},
		"oversized length":  append([]byte{frameGraph}, binary.AppendUvarint(nil, maxFramePayload+1)...),
		"huge length":       append([]byte{frameGraph}, binary.AppendUvarint(nil, 1<<60)...),
	}
	for name, in := range cases {
		if typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(in))); err == nil {
			t.Errorf("%s: readFrame accepted (type %d, %d bytes)", name, typ, len(payload))
		} else if err == io.EOF {
			t.Errorf("%s: clean io.EOF for a corrupt frame", name)
		}
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	// The oversized check fires before any write, so a nil writer proves it.
	if err := writeFrame(nil, frameGraph, make([]byte, maxFramePayload+1)); err == nil {
		t.Fatal("writeFrame accepted an oversized payload")
	}
}

func TestGraphCodecRoundTrip(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 3, V: 1}}
	g, err := DecodeGraph(EncodeGraph(5, edges))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != len(edges) {
		t.Fatalf("decoded %d nodes / %d edges, want 5 / %d", g.NumNodes(), g.NumEdges(), len(edges))
	}
	got := g.Edges()
	want := graph.FromEdges(5, edges).Edges()
	if len(got) != len(want) {
		t.Fatalf("edge count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDecodeGraphRejectsBadPayload(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"no edge count":  binary.AppendUvarint(nil, 5),
		"short edges":    append(binary.AppendUvarint(binary.AppendUvarint(nil, 5), 2), make([]byte, 8)...),
		"trailing bytes": append(binary.AppendUvarint(binary.AppendUvarint(nil, 5), 0), 0),
	}
	for name, in := range cases {
		if g, err := DecodeGraph(in); err == nil {
			t.Errorf("%s: DecodeGraph accepted (%d nodes)", name, g.NumNodes())
		}
	}
}

func TestInstancesCodecRoundTrip(t *testing.T) {
	// One frame past a slab chunk whose widths vary from instance to
	// instance, from 0 to past any sample's.
	var mixed [][]graph.Node
	for i := range 700 {
		phi := make([]graph.Node, i%18)
		if i%100 == 99 {
			phi = make([]graph.Node, 40)
		}
		for j := range phi {
			phi[j] = graph.Node(i*40 + j)
		}
		mixed = append(mixed, phi)
	}
	batches := [][][]graph.Node{
		{},
		{{1, 2, 3}},
		{{0}, {4, 5}, {6, 7, 8, 9}},
		mixed,
	}
	for i, batch := range batches {
		got, err := decodeInstances(appendInstances(nil, batch))
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("batch %d: %d instances, want %d", i, len(got), len(batch))
		}
		// Each instance is capped, so the caller may grow it without
		// writing into its neighbour.
		for j := range batch {
			if len(got[j]) != len(batch[j]) || cap(got[j]) != len(batch[j]) {
				t.Fatalf("batch %d instance %d: width %d cap %d, want %d", i, j, len(got[j]), cap(got[j]), len(batch[j]))
			}
			for k := range batch[j] {
				if got[j][k] != batch[j][k] {
					t.Fatalf("batch %d instance %d node %d: %d, want %d", i, j, k, got[j][k], batch[j][k])
				}
			}
		}
	}
}

func TestDecodeInstancesRejectsBadPayload(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"count overrun":    binary.AppendUvarint(nil, 1<<40),
		"width overrun":    binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<40),
		"truncated nodes":  binary.AppendUvarint(binary.AppendUvarint(nil, 1), 3),
		"trailing garbage": append(appendInstances(nil, [][]graph.Node{{1}}), 0xff),
	}
	for name, in := range cases {
		if batch, err := decodeInstances(in); err == nil {
			t.Errorf("%s: decodeInstances accepted (%d instances)", name, len(batch))
		}
	}
}

// FuzzFrameCodec feeds arbitrary bytes to readFrame: it must never panic or
// over-allocate, must reject truncated/oversized/corrupted length headers
// with an error, and any frame it does accept must re-encode to exactly the
// bytes consumed.
func FuzzFrameCodec(f *testing.F) {
	f.Add(appendFrame(nil, frameGraph, EncodeGraph(3, []graph.Edge{{U: 0, V: 1}})))
	f.Add(appendFrame(nil, frameInstances, appendInstances(nil, [][]graph.Node{{1, 2, 3}})))
	f.Add(appendFrame(nil, frameDone, []byte("gob")))
	f.Add(appendFrame(nil, frameError, nil))
	f.Add([]byte{frameGraph, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		br := bufio.NewReader(r)
		for {
			typ, payload, err := readFrame(br)
			if err != nil {
				// io.EOF is only legitimate at a frame boundary, with
				// nothing left unread.
				if err == io.EOF && br.Buffered()+r.Len() != 0 {
					t.Fatalf("clean EOF with %d bytes unread", br.Buffered()+r.Len())
				}
				return
			}
			if len(payload) > maxFramePayload {
				t.Fatalf("payload %d exceeds limit", len(payload))
			}
			// Any accepted frame must survive a re-encode/re-read round
			// trip exactly.
			typ2, payload2, err := readFrame(bufio.NewReader(bytes.NewReader(appendFrame(nil, typ, payload))))
			if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
				t.Fatalf("re-encode round trip diverged: type %d vs %d, err %v", typ2, typ, err)
			}

			// Decoders over accepted payloads must not panic either.
			switch typ {
			case frameGraph:
				DecodeGraph(payload)
			case frameInstances:
				decodeInstances(payload)
			}
		}
	})
}
