package tworound

import (
	"encoding/binary"
	"fmt"

	"subgraphmr/internal/graph"
)

// Both rounds key by one integer and ship a node with a flag, which
// DefaultCodec pushes through reflection (reflect.ValueOf per key,
// binary.Append per value) — the hottest per-pair work of a budgeted run.
// These fixed-width codecs produce the same bytes without it: 8-byte
// big-endian keys (a node sign-extended, as DefaultCodec widens any integer
// key) and 5-byte values, so KeyPartition slices, distributed retries and
// spill-run order are where DefaultCodec put them.

func appendWord(dst []byte, w uint64) []byte { return binary.BigEndian.AppendUint64(dst, w) }

func decodeWord(src []byte) (uint64, error) {
	if len(src) != 8 {
		return 0, fmt.Errorf("tworound: key encoding is %d bytes, want 8", len(src))
	}
	return binary.BigEndian.Uint64(src), nil
}

func appendNodeFlag(dst []byte, n graph.Node, flag bool) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	if flag {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodeNodeFlag(src []byte) (graph.Node, bool, error) {
	if len(src) != 5 {
		return 0, false, fmt.Errorf("tworound: node+flag encoding is %d bytes, want 5", len(src))
	}
	return graph.Node(binary.BigEndian.Uint32(src)), src[4] != 0, nil
}

// wedgeJoinCodec serializes the round-1 pairs (middle node → role).
type wedgeJoinCodec struct{}

func (wedgeJoinCodec) AppendKey(dst []byte, y graph.Node) []byte {
	return appendWord(dst, uint64(int64(y)))
}

func (wedgeJoinCodec) DecodeKey(src []byte) (graph.Node, error) {
	w, err := decodeWord(src)
	return graph.Node(w), err
}

func (wedgeJoinCodec) AppendValue(dst []byte, r role) []byte {
	return appendNodeFlag(dst, r.Other, r.Left)
}

func (wedgeJoinCodec) DecodeValue(src []byte) (role, error) {
	n, flag, err := decodeNodeFlag(src)
	return role{Other: n, Left: flag}, err
}

// closeCodec serializes the round-2 pairs ((X,Z) edge key → edgeOrWedge).
type closeCodec struct{}

func (closeCodec) AppendKey(dst []byte, xz uint64) []byte { return appendWord(dst, xz) }
func (closeCodec) DecodeKey(src []byte) (uint64, error)   { return decodeWord(src) }
func (closeCodec) AppendValue(dst []byte, v edgeOrWedge) []byte {
	return appendNodeFlag(dst, v.Y, v.IsEdge)
}

func (closeCodec) DecodeValue(src []byte) (edgeOrWedge, error) {
	n, flag, err := decodeNodeFlag(src)
	return edgeOrWedge{Y: n, IsEdge: flag}, err
}
