// Package difftest is a cross-strategy differential test harness: it runs
// every map-reduce enumeration strategy on the same inputs and checks the
// result against the serial oracle, returning the engine metrics so callers
// can additionally assert how the job executed (e.g. that a memory budget
// really forced the external shuffle to spill).
//
// Each Check function returns a descriptive error on the first divergence —
// a wrong, missing or duplicated instance — and the summed metrics of every
// map-reduce job it ran. The checks are deterministic given their seeds, so
// a failure reproduces standalone.
package difftest

import (
	"context"
	"fmt"
	"sort"

	"subgraphmr/internal/core"
	"subgraphmr/internal/directed"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
	"subgraphmr/internal/triangle"
	"subgraphmr/internal/tworound"
)

// compareInstances checks that got contains exactly the oracle's instance
// set, each exactly once, keyed canonically.
func compareInstances(label string, want map[string]bool, got []string) error {
	seen := make(map[string]bool, len(got))
	for _, k := range got {
		if seen[k] {
			return fmt.Errorf("%s: instance %s produced twice", label, k)
		}
		seen[k] = true
		if !want[k] {
			return fmt.Errorf("%s: spurious instance %s (not found by the serial oracle)", label, k)
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("%s: %d instances, oracle found %d", label, len(seen), len(want))
	}
	return nil
}

// sampleOracle enumerates the oracle instance set of s in g by brute force.
func sampleOracle(g *graph.Graph, s *sample.Sample) map[string]bool {
	want := map[string]bool{}
	for _, phi := range serial.BruteForce(g, s) {
		want[s.Key(phi)] = true
	}
	return want
}

// CheckEnumerate runs core.Enumerate under st and opt and compares the
// instance set against the brute-force oracle.
func CheckEnumerate(ctx context.Context, g *graph.Graph, s *sample.Sample, st core.Strategy, opt core.Options) (mapreduce.Metrics, error) {
	return checkCore(fmt.Sprintf("enumerate/%v/%v", st, s), g, s, func(sink func([]graph.Node) bool) (*core.Result, error) {
		qs, err := core.CompileCQs(s)
		if err != nil {
			return nil, err
		}
		return core.Enumerate(ctx, g, s, st, qs, opt, sink)
	})
}

// CheckDecomposed runs the Theorem 6.1 decomposition conversion and
// compares the instance set against the brute-force oracle.
func CheckDecomposed(ctx context.Context, g *graph.Graph, s *sample.Sample, opt core.Options) (mapreduce.Metrics, error) {
	return checkCore(fmt.Sprintf("mr-decompose/%v", s), g, s, func(sink func([]graph.Node) bool) (*core.Result, error) {
		return core.EnumerateDecomposed(ctx, g, s, opt, sink)
	})
}

// checkCore collects what run delivers and holds it against the oracle.
func checkCore(label string, g *graph.Graph, s *sample.Sample, run func(sink func([]graph.Node) bool) (*core.Result, error)) (mapreduce.Metrics, error) {
	var keys []string
	var bad []graph.Node
	res, err := run(func(phi []graph.Node) bool {
		if !s.IsInstance(g, phi) {
			bad = phi
			return false
		}
		keys = append(keys, s.Key(phi))
		return true
	})
	if err != nil {
		return mapreduce.Metrics{}, err
	}
	var m mapreduce.Metrics
	for _, j := range res.Jobs {
		m.Add(j.Metrics)
	}
	if bad != nil {
		return m, fmt.Errorf("%s: emitted non-instance %v", label, bad)
	}
	if err := compareInstances(label, sampleOracle(g, s), keys); err != nil {
		return m, err
	}
	if res.Count != int64(len(keys)) {
		return m, fmt.Errorf("%s: Count %d but %d instances", label, res.Count, len(keys))
	}
	return m, nil
}

// tripleKeys returns a sink collecting triangles under their oracle keys.
func tripleKeys(got *[]string) func([3]graph.Node) bool {
	return func(tr [3]graph.Node) bool {
		*got = append(*got, fmt.Sprint(tr))
		return true
	}
}

// CheckTwoRound runs the two-round cascade baseline and compares its
// triangle set against the serial enumerator.
func CheckTwoRound(ctx context.Context, g *graph.Graph, cfg mapreduce.Config) (mapreduce.Metrics, error) {
	var got []string
	res, err := tworound.Triangles(ctx, g, cfg, tripleKeys(&got))
	if err != nil {
		return mapreduce.Metrics{}, err
	}
	var m mapreduce.Metrics
	for _, r := range res.Rounds {
		m.Add(r.Metrics)
	}
	return m, compareInstances("tworound", triangleOracle(g), got)
}

// CheckTriangle runs one of the Section 2 triangle algorithms and compares
// its triangle set against the serial enumerator.
func CheckTriangle(ctx context.Context, g *graph.Graph, algo triangle.Algo, b int, seed uint64, cfg mapreduce.Config) (mapreduce.Metrics, error) {
	var got []string
	m, err := algo.Run(ctx, g, b, seed, cfg, tripleKeys(&got))
	if err != nil {
		return mapreduce.Metrics{}, err
	}
	return m, compareInstances("triangle/"+algo.Name, triangleOracle(g), got)
}

func triangleOracle(g *graph.Graph) map[string]bool {
	want := map[string]bool{}
	serial.Triangles(g, func(a, b, c graph.Node) {
		want[fmt.Sprint([3]graph.Node{a, b, c})] = true
	})
	return want
}

// CheckDirected runs the directed labeled enumeration and compares the
// instance set against the directed brute-force oracle.
func CheckDirected(ctx context.Context, g *directed.DiGraph, pt *directed.DiPattern, opt core.Options) (mapreduce.Metrics, error) {
	res, err := directed.EnumerateContext(ctx, g, pt, opt, nil)
	if err != nil {
		return mapreduce.Metrics{}, err
	}
	want := map[string]bool{}
	for _, phi := range directed.BruteForce(g, pt) {
		want[fmt.Sprint(phi)] = true
	}
	got := make([]string, 0, len(res.Instances))
	for _, phi := range res.Instances {
		got = append(got, fmt.Sprint(phi))
	}
	return res.Jobs[0].Metrics, compareInstances("directed", want, got)
}

// Graphs returns the seeded test corpus: a uniform Gnm graph and a skewed
// power-law graph, both small enough for the brute-force oracle.
func Graphs(seed int64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnm":      graph.Gnm(26, 60, seed),
		"powerlaw": graph.PowerLaw(30, 5, 2.3, seed+1),
	}
}

// Samples returns the sample graphs the harness checks, ordered by name.
func Samples() []*sample.Sample {
	ss := []*sample.Sample{
		sample.SingleEdge(),
		sample.TwoPath(),
		sample.Triangle(),
		sample.Square(),
		sample.Lollipop(),
		sample.Cycle(5),
		sample.Path(4),
		sample.Star(4),
	}
	sort.Slice(ss, func(i, j int) bool { return fmt.Sprint(ss[i]) < fmt.Sprint(ss[j]) })
	return ss
}
