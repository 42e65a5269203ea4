package mapreduce

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
)

// Codec serializes keys and values for the external shuffle (see
// Config.MemoryBudget). Key encodings must be deterministic and injective:
// equal keys always produce equal bytes and distinct keys distinct bytes,
// because a budgeted reduce worker groups pairs by sorting and comparing
// encoded keys — in its buffer as well as across spilled runs. Value
// encodings only need to round-trip. DefaultCodec satisfies both for
// gob-encodable value types, with key-type exclusions: keys compared by
// identity (pointers, or interfaces holding them) encode their pointees, so
// two distinct pointer keys with equal pointees collide; float keys
// containing NaN (distinct under ==, but encoding equal bytes) collapse into
// one group; and +0.0 and -0.0 float keys (equal under ==, but encoding
// distinct bytes) can split one group in two. Any of these would make a
// budgeted run group differently than the in-memory hash table, so give such
// jobs a Codec with an identity-faithful key encoding, or run them without a
// budget. Supply a custom Codec on Job.Codec likewise when the default is too
// slow for a hot value type or the type is not gob-encodable.
type Codec[K comparable, V any] interface {
	// AppendKey appends the encoding of k to dst and returns the result.
	AppendKey(dst []byte, k K) []byte
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

// DefaultCodec builds a codec for any gob-encodable key/value pair. Strings
// encode as their raw bytes, integer types as fixed-width big-endian words,
// fixed-size types (per binary.Size: structs and arrays of fixed-width
// fields) via encoding/binary, and everything else through a fresh gob
// stream per item — correct for any exported-field type but the slowest
// path, so hot jobs with such value types should set Job.Codec.
func DefaultCodec[K comparable, V any]() Codec[K, V] {
	ak, dk := codecFor[K]()
	av, dv := codecFor[V]()
	return funcCodec[K, V]{appendKey: ak, decodeKey: dk, appendValue: av, decodeValue: dv}
}

// codecFor picks the encode/decode pair for one type, preferring the
// cheapest applicable representation.
func codecFor[T any]() (func([]byte, T) []byte, func([]byte) (T, error)) {
	var zero T
	rt := reflect.TypeFor[T]()
	switch rt.Kind() {
	case reflect.String:
		enc := func(dst []byte, v T) []byte {
			return append(dst, reflect.ValueOf(v).String()...)
		}
		dec := func(src []byte) (T, error) {
			var t T
			reflect.ValueOf(&t).Elem().SetString(string(src))
			return t, nil
		}
		return enc, dec
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
	}
	if binary.Size(zero) >= 0 {
		enc := func(dst []byte, v T) []byte {
			out, err := binary.Append(dst, binary.BigEndian, v)
			if err != nil {
				// Unreachable on this path: binary.Size(zero) >= 0 above
				// proved T is a fixed-size type, and binary.Append only
				// fails for types binary.Size rejects. (Were it reached,
				// the engine's per-worker recovery would still convert it
				// into a typed *EngineError rather than crash the run.)
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
	enc := func(dst []byte, v T) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			// Reachable for non-gob-encodable value types (chans, funcs,
			// no exported fields) — a Job construction bug, not a runtime
			// condition. The Append* interface has no error return, so
			// this panics; it fires inside a reduce worker's spill, where
			// the engine's per-worker recovery converts it into a typed
			// *EngineError with clean spill teardown (pinned by
			// TestSpillUnencodableValueTypedError).
			panic(fmt.Sprintf("mapreduce: gob-encoding %T: %v", v, err))
		}
		return append(dst, buf.Bytes()...)
	}
	dec := func(src []byte) (T, error) {
		var t T
		err := gob.NewDecoder(bytes.NewReader(src)).Decode(&t)
		return t, err
	}
	return enc, dec
}

// sizerFor returns the estimator of the heap bytes a T references beyond
// its own unsafe.Sizeof — string bytes, slice backing arrays, pointees — for
// the spiller's budget accounting, or nil when T is a fixed-size type that
// references none. The estimate decides when to spill, never correctness.
// It pays a reflective walk per value.
func sizerFor[T any]() func(T) int {
	rt := reflect.TypeFor[T]()
	if rt.Kind() == reflect.String {
		return func(v T) int { return reflect.ValueOf(v).Len() }
	}
	if !hasDynamicData(rt) {
		return nil
	}
	return func(v T) int { return dynamicSize(reflect.ValueOf(v), 4) }
}

// hasDynamicData reports whether values of t can reference heap data not
// counted by t.Size().
func hasDynamicData(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface:
		return true
	case reflect.Array:
		return hasDynamicData(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasDynamicData(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// dynamicSize estimates the pointer-chased bytes of v, walking at most
// depth levels of nesting (deep cyclic structures are not worth chasing
// for a spill heuristic).
func dynamicSize(v reflect.Value, depth int) int {
	if depth == 0 {
		return 0
	}
	switch v.Kind() {
	case reflect.String:
		return v.Len()
	case reflect.Slice:
		n := v.Cap() * int(v.Type().Elem().Size())
		if hasDynamicData(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += dynamicSize(v.Index(i), depth-1)
			}
		}
		return n
	case reflect.Map:
		n := 48
		iter := v.MapRange()
		for iter.Next() {
			n += int(v.Type().Key().Size()+v.Type().Elem().Size()) + 16
			n += dynamicSize(iter.Key(), depth-1) + dynamicSize(iter.Value(), depth-1)
		}
		return n
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		e := v.Elem()
		return int(e.Type().Size()) + dynamicSize(e, depth-1)
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			if hasDynamicData(v.Field(i).Type()) {
				n += dynamicSize(v.Field(i), depth-1)
			}
		}
		return n
	case reflect.Array:
		n := 0
		if hasDynamicData(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += dynamicSize(v.Index(i), depth-1)
			}
		}
		return n
	}
	return 0
}
