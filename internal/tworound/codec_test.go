package tworound

import (
	"bytes"
	"testing"
	"testing/quick"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
)

// codecMatchesDefault holds a job codec to DefaultCodec byte for byte (so
// KeyPartition slices and spill-run order stay where they were) and checks
// the round trip.
func codecMatchesDefault[K comparable, V comparable](t *testing.T, c mapreduce.Codec[K, V]) {
	t.Helper()
	def := mapreduce.DefaultCodec[K, V]()
	if err := quick.Check(func(k K, v V) bool {
		kb, vb := c.AppendKey(nil, k), c.AppendValue(nil, v)
		if !bytes.Equal(kb, def.AppendKey(nil, k)) || !bytes.Equal(vb, def.AppendValue(nil, v)) {
			return false
		}
		gotK, errK := c.DecodeKey(kb)
		gotV, errV := c.DecodeValue(vb)
		return errK == nil && errV == nil && gotK == k && gotV == v
	}, nil); err != nil {
		t.Error(err)
	}
	for _, n := range []int{0, 4, 7, 9} {
		if _, err := c.DecodeKey(make([]byte, n)); err == nil {
			t.Errorf("DecodeKey accepted %d bytes", n)
		}
	}
	for _, n := range []int{0, 4, 6} {
		if _, err := c.DecodeValue(make([]byte, n)); err == nil {
			t.Errorf("DecodeValue accepted %d bytes", n)
		}
	}
}

func TestCodecsMatchDefaultCodec(t *testing.T) {
	codecMatchesDefault[graph.Node, role](t, wedgeJoinCodec{})
	codecMatchesDefault[uint64, edgeOrWedge](t, closeCodec{})
}
