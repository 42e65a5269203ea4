package core

import (
	"fmt"
	"maps"
	"testing"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/shares"
)

// This file keeps the per-pair mappers the jobs ran before replication went
// by reference, as the reference the block schemes are held to: for every
// reducer key, the scheme's task reads exactly as many edges as the mapper
// emitted pairs under that key — so KeyValuePairs, DistinctKeys and
// MaxReducerInput of every job are what they were, key by key.

// refBucketMap is the Section 4.5 mapper: the edge under every nondecreasing
// p-tuple over b buckets that contains both endpoint buckets — the fixed
// pair merged into each nondecreasing choice of the p-2 free buckets.
func refBucketMap(h graph.NodeHash, p int, e graph.Edge, emit func(graph.BucketKey)) {
	free := make([]int, p-2, p)
	var rec func(i, from int)
	rec = func(i, from int) {
		if i == p-2 {
			emit(graph.MultisetKey(append(free, h.Bucket(e.U), h.Bucket(e.V))...))
			return
		}
		for x := from; x < h.B; x++ {
			free[i] = x
			rec(i+1, x)
		}
	}
	rec(0, 0)
}

// refShareMap is the share-based mapper: per binding, the edge under every
// bucket tuple extending the bound pair, last variable fastest.
func refShareMap(binds []edgeBinding, hashes []graph.NodeHash, e graph.Edge, emit func(graph.BucketKey)) {
	for _, bind := range binds {
		var key graph.BucketKey
		key.Set(bind.lo, hashes[bind.lo].Bucket(e.U))
		key.Set(bind.hi, hashes[bind.hi].Bucket(e.V))
	tuples:
		for {
			emit(key)
			for v := len(hashes) - 1; v >= 0; v-- {
				if v == bind.lo || v == bind.hi {
					continue
				}
				if next := int(key[v]) + 1; next < hashes[v].B {
					key.Set(v, next)
					continue tuples
				}
				key.Set(v, 0)
			}
			break
		}
	}
}

// pairLoads is the load histogram of a per-pair mapper over g.
func pairLoads(g *graph.Graph, mapper func(graph.Edge, func(graph.BucketKey))) map[graph.BucketKey]int {
	loads := map[graph.BucketKey]int{}
	for _, e := range g.Edges() {
		mapper(e, func(k graph.BucketKey) { loads[k]++ })
	}
	return loads
}

// blockLoads is the load histogram of a scheme's job over g, as its reducers
// see it.
func blockLoads(job func(string) enumJob, g *graph.Graph) map[graph.BucketKey]int {
	loads := map[graph.BucketKey]int{}
	for key, edges := range shuffleOf(job("groups"), g).groups {
		loads[key] = len(edges)
	}
	return loads
}

// TestBlockLoadsMatchPairMappers: on the differential harness's graphs, for
// triangle, square and lollipop, the bucket scheme (bucket-oriented and the
// Theorem 6.1 conversion run it) at two bucket counts, the variable-oriented
// job and every cq-oriented job ship, reducer by reducer, what the per-pair
// mappers shipped — and the load probe reports that same histogram's summary.
func TestBlockLoadsMatchPairMappers(t *testing.T) {
	graphs := map[string]*graph.Graph{ // difftest.Graphs(7)
		"gnm":      graph.Gnm(26, 60, 7),
		"powerlaw": graph.PowerLaw(30, 5, 2.3, 8),
	}
	check := func(t *testing.T, g *graph.Graph, job func(string) enumJob, ref func(graph.Edge, func(graph.BucketKey))) {
		t.Helper()
		got, want := blockLoads(job, g), pairLoads(g, ref)
		if !maps.Equal(got, want) {
			t.Fatalf("block job loads %v, the pair mapper shipped %v", got, want)
		}
		ls, err := job("probe").Loads(mapreduce.Config{}, g.Edges())
		if err != nil {
			t.Fatal(err)
		}
		var pairs, maxLoad int64
		for _, n := range want {
			pairs += int64(n)
			maxLoad = max(maxLoad, int64(n))
		}
		if ls.Pairs != pairs || ls.Keys != int64(len(want)) || ls.MaxLoad != maxLoad {
			t.Fatalf("probe %+v, the pair mapper shipped %d pairs to %d keys, at most %d", ls, pairs, len(want), maxLoad)
		}
	}
	for gname, g := range graphs {
		for _, s := range []*sample.Sample{sample.Triangle(), sample.Square(), sample.Lollipop()} {
			qs := cq.MergeByOrientation(cq.GenerateForSample(s))
			for _, b := range []int{1, 3, shares.BucketsForReducers(64, s.P())} {
				t.Run(fmt.Sprintf("%s/%v/bucket b=%d", gname, s, b), func(t *testing.T) {
					bm, err := newBucketScheme(11, s.P(), b)
					if err != nil {
						t.Fatal(err)
					}
					check(t, g, bm.job, func(e graph.Edge, emit func(graph.BucketKey)) { refBucketMap(bm.h, s.P(), e, emit) })
				})
			}
			shareJob := func(name string, model shares.Model, binds []edgeBinding) {
				t.Run(fmt.Sprintf("%s/%v/%s", gname, s, name), func(t *testing.T) {
					sol, err := model.Solve(64)
					if err != nil {
						t.Fatal(err)
					}
					sm, err := newShareScheme(11, binds, model.RoundShares(sol.Shares, 64))
					if err != nil {
						t.Fatal(err)
					}
					check(t, g, sm.job, func(e graph.Edge, emit func(graph.BucketKey)) { refShareMap(binds, sm.hashes, e, emit) })
				})
			}
			uses := cq.EdgeUses(qs)
			shareJob("variable", shares.ModelFromEdgeUses(s.P(), uses), bindingsFromUses(uses))
			for i, q := range qs {
				shareJob(fmt.Sprintf("cq %d", i+1), shares.ModelFromCQ(q), bindingsFromCQ(q))
			}
		}
	}
}
