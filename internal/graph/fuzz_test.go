package graph

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadEdgeList feeds arbitrary bytes to the edge-list parser — it must
// never panic — and, whenever a graph parses, checks that writing it and
// re-reading it reproduces the same node count and edge set.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("# nodes 3\n0 1\n1 2\n"))
	f.Add([]byte("0 1\n"))
	f.Add([]byte("# a comment\n\n2 2\n"))
	f.Add([]byte("5 -1\n"))
	f.Add([]byte("# nodes 1\n7 8\n"))
	f.Add([]byte("1 2 3 trailing\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("writing parsed graph: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading written graph: %v\ninput: %q", err, buf.String())
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: n %d→%d, m %d→%d",
				g.NumNodes(), g2.NumNodes(), g.NumEdges(), g2.NumEdges())
		}
		for _, e := range g.Edges() {
			if !g2.HasEdge(e.U, e.V) {
				t.Fatalf("round trip lost edge %v", e)
			}
		}
	})
}

// FuzzBucketKey: any byte string is a bucket multiset (every byte is a
// bucket below 256, so nothing may panic); its key encodes as its sorted
// buckets, one byte each, at its own arity; and the pair blocks of its
// buckets are ids below PairBlocks, the same in either order, and shared by
// no two different pairs.
func FuzzBucketKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255})
	f.Add(bytes.Repeat([]byte{9}, MaxKeyVars))
	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = raw[:min(len(raw), MaxKeyVars)]
		buckets := make([]int, len(raw))
		for i, b := range raw {
			buckets[i] = int(b)
		}
		key := MultisetKey(buckets...)
		c := EdgeKeyCodec{P: len(raw)}
		enc := c.AppendKey(nil, key)
		if sorted := slices.Sorted(slices.Values(raw)); !bytes.Equal(enc, sorted) {
			t.Fatalf("buckets %v encoded as %v, want %v", raw, enc, sorted)
		}
		b := 1
		for _, h := range buckets {
			b = max(b, h+1)
		}
		pairOf := map[int][2]int{}
		for _, hu := range buckets {
			for _, hv := range buckets {
				blk := PairBlock(b, hu, hv)
				if blk < 0 || blk >= PairBlocks(b) || blk != PairBlock(b, hv, hu) {
					t.Fatalf("b=%d: block of (%d,%d) is %d, of (%d,%d) is %d, want one id below %d",
						b, hu, hv, blk, hv, hu, PairBlock(b, hv, hu), PairBlocks(b))
				}
				pair := [2]int{min(hu, hv), max(hu, hv)}
				if prev, ok := pairOf[blk]; ok && prev != pair {
					t.Fatalf("b=%d: pairs %v and %v share block %d", b, prev, pair, blk)
				}
				pairOf[blk] = pair
			}
		}
	})
}
