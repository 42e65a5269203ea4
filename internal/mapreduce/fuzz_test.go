package mapreduce

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpillCodec asserts the codec contract on the default codec for a
// fixed-width struct key, encoded through encoding/binary to 12 bytes (a
// key that can run distributed, though not under a memory budget), and
// int64 values: every round trip is lossless and key encodings are
// injective.
func FuzzSpillCodec(f *testing.F) {
	type key struct {
		A int64
		B int32
	}
	f.Add(int64(7), int32(1), int64(7), int32(2), int64(42))
	f.Add(int64(0), int32(-1), int64(-1), int32(0), int64(-1))
	f.Fuzz(func(t *testing.T, a1 int64, b1 int32, a2 int64, b2 int32, v int64) {
		c := DefaultCodec[key, int64]()
		k1, k2 := key{a1, b1}, key{a2, b2}
		kb := c.AppendKey(nil, k1)
		k, err := c.DecodeKey(kb)
		if err != nil || k != k1 {
			t.Fatalf("key %+v round-tripped to %+v, %v", k1, k, err)
		}
		if k1 != k2 && string(kb) == string(c.AppendKey(nil, k2)) {
			t.Fatalf("distinct keys %+v and %+v share an encoding", k1, k2)
		}
		vv, err := c.DecodeValue(c.AppendValue(nil, v))
		if err != nil || vv != v {
			t.Fatalf("value %d round-tripped to %d, %v", v, vv, err)
		}
	})
}

// FuzzRunReader feeds arbitrary bytes to the run reader as a one-run spill
// file and reads it to the end: a clean end or a read error, never a panic,
// and never a buffer larger than the file that asked for it.
func FuzzRunReader(f *testing.F) {
	s := wordSpiller(f, 1<<20, 1, 6)
	valid, err := os.ReadFile(s.f.Name())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{'k', 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sgmr-spill-fuzz.run")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		var m merger
		if err := m.reset(file, []span{{0, int64(len(data))}}, 1<<20); err != nil {
			return
		}
		c := &m.all[0]
		for {
			_, ok, err := m.nextGroup(func(vb []byte) error {
				if cap(c.val) > len(data) {
					t.Fatalf("a %d-byte run grew the value buffer to %d", len(data), cap(c.val))
				}
				return nil
			})
			if err != nil || !ok {
				return
			}
		}
	})
}
