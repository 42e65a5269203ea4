package mapreduce

import (
	"context"
	"fmt"
)

// The engine's own tests run many small jobs that have no reason to fail;
// these are the ctx-less shorthands for them. Production code has only the
// ctx-taking entry points, so an engine failure here panics the test.

func (j Job[I, K, V, O]) Run(cfg Config, inputs []I) ([]O, Metrics) {
	out, m, err := j.RunContext(context.Background(), cfg, inputs)
	if err != nil {
		panic(fmt.Sprintf("mapreduce: %v", err))
	}
	return out, m
}

func Run[I any, K comparable, V any, O any](cfg Config, inputs []I, mapFn Mapper[I, K, V], reduceFn Reducer[K, V, O]) ([]O, Metrics) {
	return Job[I, K, V, O]{Map: mapFn, Reduce: reduceFn}.Run(cfg, inputs)
}

func mustRound[I any, K comparable, V any, O any](c *Chain, j Job[I, K, V, O], inputs []I) []O {
	outs, err := RunRound(context.Background(), c, j, inputs)
	if err != nil {
		panic(fmt.Sprintf("mapreduce: %v", err))
	}
	return outs
}
