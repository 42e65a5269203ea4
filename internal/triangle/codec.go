package triangle

import (
	"fmt"

	"subgraphmr/internal/graph"
)

// taggedEdgeCodec serializes the Multiway job pairs: the shared key half,
// and a 9-byte value — the shared edge encoding followed by the role mask.
type taggedEdgeCodec struct{ graph.EdgeKeyCodec }

func (c taggedEdgeCodec) AppendValue(dst []byte, te taggedEdge) []byte {
	return append(c.EdgeKeyCodec.AppendValue(dst, te.E), byte(te.Roles))
}

func (c taggedEdgeCodec) DecodeValue(src []byte) (taggedEdge, error) {
	if len(src) != 9 {
		return taggedEdge{}, fmt.Errorf("triangle: tagged-edge encoding is %d bytes, want 9", len(src))
	}
	e, err := c.EdgeKeyCodec.DecodeValue(src[:8])
	return taggedEdge{E: e, Roles: roleMask(src[8])}, err
}
