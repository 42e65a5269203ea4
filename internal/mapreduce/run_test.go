package mapreduce

import (
	"context"
	"encoding/binary"
	"fmt"
)

// The engine's own tests run many small jobs that have no reason to fail;
// these are the ctx-less shorthands for them. Production code has only the
// streaming entry points, so an engine failure here panics the test.

// collect runs j and gathers its outputs; a failed run returns none.
func collect[I any, K comparable, V any, O any](ctx context.Context, j Job[I, K, V, O], cfg Config, inputs []I) ([]O, Metrics, error) {
	var out []O
	m, err := j.RunStream(ctx, cfg, inputs, func(o O) bool {
		out = append(out, o)
		return true
	})
	if err != nil {
		return nil, m, err
	}
	return out, m, nil
}

func (j Job[I, K, V, O]) Run(cfg Config, inputs []I) ([]O, Metrics) {
	out, m, err := collect(context.Background(), j, cfg, inputs)
	if err != nil {
		panic(fmt.Sprintf("mapreduce: %v", err))
	}
	return out, m
}

func Run[I any, K comparable, V any, O any](cfg Config, inputs []I, mapFn Mapper[I, K, V], reduceFn Reducer[K, V, O]) ([]O, Metrics) {
	return Job[I, K, V, O]{Map: mapFn, Reduce: reduceFn}.Run(cfg, inputs)
}

func mustRound[I any, K comparable, V any, O any](c *Chain, j Job[I, K, V, O], inputs []I) []O {
	var outs []O
	err := RunRoundStream(context.Background(), c, j, inputs, func(o O) bool {
		outs = append(outs, o)
		return true
	})
	if err != nil {
		panic(fmt.Sprintf("mapreduce: %v", err))
	}
	return outs
}

// stringCodec is the Codec a string-keyed job brings, since DefaultCodec
// covers only fixed-size types: raw key bytes (variable-length, so the
// spiller's long-key arena and prefix ties stay exercised) and big-endian
// int64 values.
type stringCodec struct{}

func (stringCodec) AppendKey(dst []byte, k string) []byte { return append(dst, k...) }
func (stringCodec) DecodeKey(src []byte) (string, error)  { return string(src), nil }
func (stringCodec) AppendValue(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}
func (stringCodec) DecodeValue(src []byte) (int64, error) {
	if len(src) != 8 {
		return 0, fmt.Errorf("value encoding is %d bytes, want 8", len(src))
	}
	return int64(binary.BigEndian.Uint64(src)), nil
}
