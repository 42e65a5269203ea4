package mapreduce

import (
	"encoding/binary"
	"fmt"
	"reflect"
)

// KeyCodec encodes reducer keys. It is the key half of a Codec and all a
// BlockJob encodes: a block job never spills, so it encodes a key only to
// test Config.Dist ownership. The encoding must be deterministic and
// injective, as a Codec's key encoding is.
type KeyCodec[K comparable] interface {
	// AppendKey appends the encoding of k to dst and returns the result.
	AppendKey(dst []byte, k K) []byte
}

// Codec serializes keys and values for the external shuffle (see
// Config.MemoryBudget) and encodes keys for Config.Dist ownership. Key
// encodings must be deterministic and injective: equal keys always produce
// equal bytes and distinct keys distinct bytes, because a budgeted reduce
// worker groups pairs by sorting and comparing encoded keys — in its buffer
// as well as across spilled runs. Under a budget every key must also encode
// to exactly 8 bytes: the external shuffle sorts and merges keys as
// big-endian words. Value encodings only need to round-trip.
// DefaultCodec satisfies both for the types it covers, with one key-type
// exclusion: float keys (or fixed-size keys containing floats) that hold
// NaN (distinct under ==, but encoding equal bytes) collapse into one group,
// and +0.0 and -0.0 (equal under ==, but encoding distinct bytes) can split
// one group in two. Either would make a budgeted run group differently than
// the in-memory hash table, so give such jobs a Codec with an
// identity-faithful key encoding, or run them without a budget.
type Codec[K comparable, V any] interface {
	KeyCodec[K]
	// DecodeKey decodes a key from the bytes AppendKey produced.
	DecodeKey(src []byte) (K, error)
	// AppendValue appends the encoding of v to dst and returns the result.
	AppendValue(dst []byte, v V) []byte
	// DecodeValue decodes a value from the bytes AppendValue produced.
	DecodeValue(src []byte) (V, error)
}

// funcCodec assembles a Codec from four functions.
type funcCodec[K comparable, V any] struct {
	appendKey   func([]byte, K) []byte
	decodeKey   func([]byte) (K, error)
	appendValue func([]byte, V) []byte
	decodeValue func([]byte) (V, error)
}

func (c funcCodec[K, V]) AppendKey(dst []byte, k K) []byte   { return c.appendKey(dst, k) }
func (c funcCodec[K, V]) DecodeKey(src []byte) (K, error)    { return c.decodeKey(src) }
func (c funcCodec[K, V]) AppendValue(dst []byte, v V) []byte { return c.appendValue(dst, v) }
func (c funcCodec[K, V]) DecodeValue(src []byte) (V, error)  { return c.decodeValue(src) }

// DefaultCodec builds a codec for fixed-size key and value types: integer
// kinds encode as big-endian 8-byte words, other fixed-size types (per
// binary.Size: bools, floats, and structs and arrays of such fields) via
// encoding/binary. It returns nil when K or V is anything else — strings,
// slices, maps, pointers — and a job over such types brings its own Codec.
// Under a memory budget its integer keys spill as they are; another key
// type spills only if its binary.Size is 8.
func DefaultCodec[K comparable, V any]() Codec[K, V] {
	ak, dk := codecFor[K]()
	av, dv := codecFor[V]()
	if ak == nil || av == nil {
		return nil
	}
	return funcCodec[K, V]{appendKey: ak, decodeKey: dk, appendValue: av, decodeValue: dv}
}

// codecFor picks the encode/decode pair for one type, or nil when the type
// is not fixed-size.
func codecFor[T any]() (func([]byte, T) []byte, func([]byte) (T, error)) {
	var zero T
	switch reflect.TypeFor[T]().Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		enc := func(dst []byte, v T) []byte {
			return binary.BigEndian.AppendUint64(dst, uint64(reflect.ValueOf(v).Int()))
		}
		dec := func(src []byte) (T, error) {
			var t T
			if len(src) != 8 {
				return t, fmt.Errorf("mapreduce: integer encoding is %d bytes, want 8", len(src))
			}
			reflect.ValueOf(&t).Elem().SetInt(int64(binary.BigEndian.Uint64(src)))
			return t, nil
		}
		return enc, dec
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		enc := func(dst []byte, v T) []byte {
			return binary.BigEndian.AppendUint64(dst, reflect.ValueOf(v).Uint())
		}
		dec := func(src []byte) (T, error) {
			var t T
			if len(src) != 8 {
				return t, fmt.Errorf("mapreduce: integer encoding is %d bytes, want 8", len(src))
			}
			reflect.ValueOf(&t).Elem().SetUint(binary.BigEndian.Uint64(src))
			return t, nil
		}
		return enc, dec
	case reflect.Slice:
		return nil, nil // binary.Size sizes a slice's contents, not its type
	}
	if binary.Size(zero) < 0 {
		return nil, nil
	}
	enc := func(dst []byte, v T) []byte {
		out, err := binary.Append(dst, binary.BigEndian, v)
		if err != nil {
			// Unreachable: binary.Size(zero) >= 0 above proved T is a
			// fixed-size type, and binary.Append only fails for types
			// binary.Size rejects. (Were it reached, the engine's per-worker
			// recovery would still convert it into a typed *EngineError
			// rather than crash the run.)
			panic(fmt.Sprintf("mapreduce: binary-encoding %T: %v", v, err))
		}
		return out
	}
	dec := func(src []byte) (T, error) {
		var t T
		_, err := binary.Decode(src, binary.BigEndian, &t)
		return t, err
	}
	return enc, dec
}

// jobCodec checks what a run under cfg needs of a job's encoding and returns
// the codec it runs with: the job's own, else DefaultCodec. Only a budgeted
// or distributed run encodes anything, so without either the codec may be
// nil; with either, a job whose types DefaultCodec does not cover and that
// brings no Codec — or an invalid DistFilter, or under a budget a codec
// whose zero key does not encode to 8 bytes — fails here, before any worker
// starts.
func jobCodec[K comparable, V any](job string, c Codec[K, V], cfg Config) (Codec[K, V], error) {
	if cfg.Dist != nil {
		if err := cfg.Dist.validate(); err != nil {
			return nil, err
		}
	}
	if cfg.MemoryBudget <= 0 && cfg.Dist == nil {
		return c, nil
	}
	if c == nil {
		if c = DefaultCodec[K, V](); c == nil {
			return nil, fmt.Errorf("mapreduce: job %q sets no Codec, and DefaultCodec cannot encode key type %v and value type %v (only integer and fixed-size types); a memory budget or a distributed run needs one",
				job, reflect.TypeFor[K](), reflect.TypeFor[V]())
		}
	}
	if cfg.MemoryBudget > 0 {
		var zero K
		if n := len(c.AppendKey(nil, zero)); n != 8 {
			return nil, fmt.Errorf("mapreduce: job %q encodes key type %v to %d bytes; a memory budget spills keys as 8-byte words",
				job, reflect.TypeFor[K](), n)
		}
	}
	return c, nil
}

// keyCodec is jobCodec for a block job, which encodes keys only and only
// under Config.Dist: the job's own KeyCodec, else DefaultCodec's key half.
// An invalid DistFilter, or a key type DefaultCodec does not cover with no
// KeyCodec, fails here, before any worker starts.
func keyCodec[K comparable](job string, c KeyCodec[K], d *DistFilter) (KeyCodec[K], error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	if c != nil {
		return c, nil
	}
	if enc, _ := codecFor[K](); enc != nil {
		return funcCodec[K, struct{}]{appendKey: enc}, nil
	}
	return nil, fmt.Errorf("mapreduce: job %q sets no Codec, and DefaultCodec cannot encode key type %v (only integer and fixed-size types); a distributed run needs one",
		job, reflect.TypeFor[K]())
}
