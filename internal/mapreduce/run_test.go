package mapreduce

import (
	"context"
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
