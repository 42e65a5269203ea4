package mapreduce

import (
	"hash/maphash"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPartitionIndex asserts the routing invariant the shuffle depends on:
// whatever a partitioner returns — including negative and overflowing
// values — partitionIndex lands every key in [0, p).
func FuzzPartitionIndex(f *testing.F) {
	f.Add("a", int64(0), uint8(1))
	f.Add("hub", int64(-1), uint8(7))
	f.Add("", int64(1)<<62, uint8(255))
	f.Fuzz(func(t *testing.T, key string, raw int64, np uint8) {
		p := int(np)
		if p < 1 {
			p = 1
		}
		hostile := func(string, int) int { return int(raw) }
		if i := partitionIndex(hostile, key, p); i < 0 || i >= p {
			t.Fatalf("hostile partitioner: index %d outside [0, %d)", i, p)
		}
		seed := maphash.MakeSeed()
		def := func(k string, pp int) int {
			return int(maphash.Comparable(seed, k) % uint64(pp))
		}
		if i := partitionIndex(def, key, p); i < 0 || i >= p {
			t.Fatalf("default partitioner: index %d outside [0, %d)", i, p)
		}
	})
}

// FuzzSpillCodec asserts the spill serialization contract on the default
// codec for string keys and int64 values: every round trip is lossless and
// key encodings are injective.
func FuzzSpillCodec(f *testing.F) {
	f.Add("k", "other", int64(42))
	f.Add("", "x", int64(-1))
	f.Fuzz(func(t *testing.T, k1, k2 string, v int64) {
		c := DefaultCodec[string, int64]()
		kb := c.AppendKey(nil, k1)
		k, err := c.DecodeKey(kb)
		if err != nil || k != k1 {
			t.Fatalf("key %q round-tripped to %q, %v", k1, k, err)
		}
		if k1 != k2 && string(kb) == string(c.AppendKey(nil, k2)) {
			t.Fatalf("distinct keys %q and %q share an encoding", k1, k2)
		}
		vv, err := c.DecodeValue(c.AppendValue(nil, v))
		if err != nil || vv != v {
			t.Fatalf("value %d round-tripped to %d, %v", v, vv, err)
		}
	})
}

// FuzzRunReader feeds arbitrary bytes to the run reader as a run file and
// reads it to the end: a clean end or a read error, never a panic, and never
// a buffer larger than the file that asked for it.
func FuzzRunReader(f *testing.F) {
	s := wordSpiller(f, 1<<20, 1, 6)
	valid, err := os.ReadFile(s.paths[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{1, 'k', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sgmr-spill-fuzz.run")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		m, err := newMerger([]string{path}, 1<<20)
		if err != nil {
			return
		}
		defer m.close()
		c := m.all[0]
		for {
			_, ok, err := m.nextGroup(func(vb []byte) error {
				if cap(c.val) > len(data) {
					t.Fatalf("a %d-byte run grew the value buffer to %d", len(data), cap(c.val))
				}
				return nil
			})
			if cap(c.key) > len(data) {
				t.Fatalf("a %d-byte run grew the key buffer to %d", len(data), cap(c.key))
			}
			if err != nil || !ok {
				return
			}
		}
	})
}
