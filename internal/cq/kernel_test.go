package cq_test

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/cycles"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
)

// kernelCase is one (sample, CQ set) pair of the property test.
type kernelCase struct {
	s   *sample.Sample
	cqs []*cq.CQ
}

func kernelCases() []kernelCase {
	merged := func(s *sample.Sample) kernelCase {
		return kernelCase{s, cq.MergeByOrientation(cq.GenerateForSample(s))}
	}
	c5 := kernelCase{s: sample.Cycle(5)}
	for _, c := range cycles.Generate(5) { // Section 5: constraint-mode CQs
		c5.cqs = append(c5.cqs, c.CQ)
	}
	return []kernelCase{
		merged(sample.Triangle()), merged(sample.Square()), merged(sample.Lollipop()), merged(sample.Complete(4)), c5,
	}
}

// hostileEdges draws an edge multiset over a small pool of sparse node ids,
// with duplicates, reversed duplicates and self-loops mixed in.
func hostileEdges(rng *rand.Rand) []graph.Edge {
	pool := make([]graph.Node, 0, 8)
	for len(pool) < cap(pool) {
		if u := graph.Node(rng.Intn(1 << 20)); !slices.Contains(pool, u) {
			pool = append(pool, u)
		}
	}
	var edges []graph.Edge
	for m := 10 + rng.Intn(12); len(edges) < m; {
		e := graph.Edge{U: pool[rng.Intn(len(pool))], V: pool[rng.Intn(len(pool))]}
		edges = append(edges, e)
		switch rng.Intn(5) {
		case 0:
			edges = append(edges, e)
		case 1:
			edges = append(edges, graph.Edge{U: e.V, V: e.U})
		case 2:
			edges = append(edges, graph.Edge{U: e.U, V: e.U})
		}
	}
	return edges
}

// local is the test's own view of a fragment: the distinct non-loop edges
// in both orientations and their endpoints, read straight off the edge list.
type local struct {
	has   map[graph.Edge]bool
	nodes []graph.Node
}

func localOf(edges []graph.Edge) local {
	l := local{has: map[graph.Edge]bool{}}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		l.has[e], l.has[graph.Edge{U: e.V, V: e.U}] = true, true
		for _, u := range []graph.Node{e.U, e.V} {
			if !slices.Contains(l.nodes, u) {
				l.nodes = append(l.nodes, u)
			}
		}
	}
	return l
}

// injective calls visit with every injective assignment of the fragment's
// nodes to p variables.
func (l local) injective(p int, visit func(phi []graph.Node)) {
	phi := make([]graph.Node, p)
	var assign func(v int)
	assign = func(v int) {
		if v == p {
			visit(phi)
			return
		}
		for _, u := range l.nodes {
			if !slices.Contains(phi[:v], u) {
				phi[v] = u
				assign(v + 1)
			}
		}
	}
	assign(0)
}

// bruteForce is the reference matcher: every injective assignment, kept
// when each subgoal maps to a data edge oriented upward in key and the
// CQ's condition holds. It reads the CQ's exported fields only.
func bruteForce(q *cq.CQ, l local, key func(graph.Node) uint64) map[string]bool {
	out := map[string]bool{}
	bruteForceEach(q, l, key, func(phi []graph.Node) { out[fmt.Sprint(phi)] = true })
	return out
}

// bruteForceEach calls visit with every match bruteForce keeps.
func bruteForceEach(q *cq.CQ, l local, key func(graph.Node) uint64, visit func(phi []graph.Node)) {
	below := func(phi []graph.Node, a, b int) bool { return key(phi[a]) < key(phi[b]) }
	l.injective(q.P, func(phi []graph.Node) {
		for _, sg := range q.Subgoals {
			if !l.has[graph.Edge{U: phi[sg.Lo], V: phi[sg.Hi]}] || !below(phi, sg.Lo, sg.Hi) {
				return
			}
		}
		ok := q.Orderings == nil
		for _, c := range q.LessCons { // the whole condition in constraint mode, implied in ordering mode
			if !below(phi, c.A, c.B) {
				return
			}
		}
		for _, ord := range q.Orderings {
			ok = ok || slices.IsSortedFunc(ord, func(a, b int) int {
				if below(phi, a, b) {
					return -1
				}
				return 1
			})
		}
		if ok {
			visit(phi)
		}
	})
}

// imageKey identifies an instance by the set of data edges it covers.
func imageKey(s *sample.Sample, phi []graph.Node) string {
	var img []graph.Edge
	for _, e := range s.Edges() {
		img = append(img, graph.Edge{U: phi[e[0]], V: phi[e[1]]}.Canon())
	}
	slices.SortFunc(img, func(a, b graph.Edge) int { return cmp.Compare(a.Key(), b.Key()) })
	return fmt.Sprint(img)
}

// instanceSet returns the image of every embedding of s — every injective
// assignment mapping each sample edge onto a data edge — which is the set
// of instances, with no CQ involved.
func instanceSet(s *sample.Sample, l local) map[string]bool {
	out := map[string]bool{}
	l.injective(s.P(), func(phi []graph.Node) {
		for _, e := range s.Edges() {
			if !l.has[graph.Edge{U: phi[e[0]], V: phi[e[1]]}] {
				return
			}
		}
		out[imageKey(s, phi)] = true
	})
	return out
}

// TestQuickKernelMatchesBruteForce is the oracle-free property of the
// rank-space kernel: on hostile edge multisets, under the natural and the
// (bucket, id) orders, each CQ's assignment set is exactly the brute-force
// matcher's, and the raw assignments of the whole CQ set are the instances
// of the sample, each exactly once.
func TestQuickKernelMatchesBruteForce(t *testing.T) {
	cases := kernelCases()
	err := quick.Check(func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tc := cases[int(pick)%len(cases)]
		edges := hostileEdges(rng)
		key := graph.NaturalKey
		if b := []int{0, 1, 3, 7}[int(pick/8)%4]; b > 0 {
			key = graph.NodeHash{Seed: uint64(seed), B: b}.Key
		}
		l := localOf(edges)
		var f graph.Fragment
		var sc cq.Scratch
		f.Build(edges, key)

		instances := map[string]int{}
		for i, q := range tc.cqs {
			want := bruteForce(q, l, key)
			got := map[string]bool{}
			cq.NewEvaluatorSet([]*cq.CQ{q}).Eval(&f, &sc, func(ranks []int32) {
				phi := make([]graph.Node, len(ranks))
				for v, r := range ranks {
					phi[v] = f.ID(r)
				}
				if got[fmt.Sprint(phi)] {
					t.Errorf("%v CQ %d: assignment %v emitted twice", tc.s, i, phi)
				}
				got[fmt.Sprint(phi)] = true
				instances[imageKey(tc.s, phi)]++
			})
			if len(got) != len(want) {
				t.Errorf("%v CQ %d (%v): kernel found %d assignments, brute force %d", tc.s, i, q, len(got), len(want))
				return false
			}
			for k := range want {
				if !got[k] {
					t.Errorf("%v CQ %d (%v): kernel missed %s", tc.s, i, q, k)
					return false
				}
			}
		}

		embeddings := instanceSet(tc.s, l)
		if len(instances) != len(embeddings) {
			t.Errorf("%v: CQ set covered %d instances, the fragment has %d", tc.s, len(instances), len(embeddings))
			return false
		}
		for k, n := range instances {
			if n != 1 || !embeddings[k] {
				t.Errorf("%v: instance %s produced %d times (in fragment: %v)", tc.s, k, n, embeddings[k])
				return false
			}
		}
		return !t.Failed()
	}, &quick.Config{MaxCount: 120})
	if err != nil {
		t.Error(err)
	}
}

// TestKernelStopsAtFirstStepCandidate: once Stop reports true the kernel
// starts no further first-step candidate, so stopping at the first match on
// a hub-heavy fragment examines a small fraction of the full run's
// candidates — and the work it did do is still reported.
func TestKernelStopsAtFirstStepCandidate(t *testing.T) {
	g := graph.PowerLaw(600, 10, 2.2, 4)
	var f graph.Fragment
	f.Build(g.Edges(), graph.NaturalKey)
	set := cq.NewEvaluatorSet(cq.MergeByOrientation(cq.GenerateForSample(sample.Square())))

	var sc cq.Scratch
	matches := 0
	full := set.Eval(&f, &sc, func([]int32) { matches++ })
	if matches < 1000 {
		t.Fatalf("only %d squares: not the hub-heavy fragment this test needs", matches)
	}

	emitted, polls := 0, 0
	sc.Stop = func() bool { polls++; return emitted > 0 }
	partial := set.Eval(&f, &sc, func([]int32) { emitted++ })
	if emitted == 0 || partial == 0 {
		t.Fatalf("stopped run emitted %d matches for %d work: it never started", emitted, partial)
	}
	if partial*10 > full {
		t.Errorf("stopped at the first match after %d candidates; the full run examines %d", partial, full)
	}
	if polls > f.NumNodes() {
		t.Errorf("Stop polled %d times on a %d-node fragment: it belongs to the first step only", polls, f.NumNodes())
	}

	// The next Eval starts afresh.
	sc.Stop = nil
	if again := set.Eval(&f, &sc, func([]int32) {}); again != full {
		t.Errorf("Eval after a stopped one did %d work, want %d", again, full)
	}
}

// ownedBy is the brute-force side of an ownership rule: q's matches under
// the node order key, grouped by the reducer key owner assigns them.
func ownedBy(q *cq.CQ, l local, key func(graph.Node) uint64, owner func(phi []graph.Node) graph.BucketKey) map[graph.BucketKey]map[string]bool {
	out := map[graph.BucketKey]map[string]bool{}
	bruteForceEach(q, l, key, func(phi []graph.Node) {
		k := owner(phi)
		if out[k] == nil {
			out[k] = map[string]bool{}
		}
		out[k][fmt.Sprint(phi)] = true
	})
	return out
}

// evalSet runs q alone over f under sc and returns its matches as node ids.
func evalSet(q *cq.CQ, f *graph.Fragment, sc *cq.Scratch) map[string]bool {
	got := map[string]bool{}
	cq.NewEvaluatorSet([]*cq.CQ{q}).Eval(f, sc, func(ranks []int32) {
		phi := make([]graph.Node, len(ranks))
		for v, r := range ranks {
			phi[v] = f.ID(r)
		}
		got[fmt.Sprint(phi)] = true
	})
	return got
}

// TestQuickKernelOwnership is the property of the ownership rules: on
// hostile edge multisets, Eval under each reducer key of a share job (a
// per-rank mask over the natural order) or of a multiset job (a bucket
// quota and lane clamp over the (bucket, id) order) emits exactly the
// brute-force matches that key owns — those whose per-variable hashes are
// the key's lanes, or whose sorted buckets are the key. One Scratch serves
// every key, and afterwards a zero Ownership restricts nothing again. The
// CQs include one whose simplified condition is not exact.
func TestQuickKernelOwnership(t *testing.T) {
	// The generated sets are all exact; footnote 5's merge of the orders
	// XYZ and ZXY of one edge is not, and its matches need the final check.
	edge := sample.MustNew(3, [][2]int{{0, 1}}, "X", "Y", "Z")
	inexact := cq.MergeByOrientation([]*cq.CQ{cq.FromOrdering(edge, []int{0, 1, 2}), cq.FromOrdering(edge, []int{2, 0, 1})})
	if len(inexact) != 1 || inexact[0].ExactSimplified {
		t.Fatalf("footnote-5 merge gave %v, want one inexact CQ", inexact)
	}
	cases := append(kernelCases(), kernelCase{edge, inexact})
	matched := 0 // owned matches compared, over the whole run

	err := quick.Check(func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tc := cases[int(pick)%len(cases)]
		p := tc.cqs[0].P
		edges := hostileEdges(rng)
		l := localOf(edges)
		var f graph.Fragment
		var sc cq.Scratch
		// check compares q's emissions under one key with what it owns.
		check := func(i int, key graph.BucketKey, owned map[graph.BucketKey]map[string]bool) bool {
			if got := evalSet(tc.cqs[i], &f, &sc); !maps.Equal(got, owned[key]) && len(got)+len(owned[key]) > 0 {
				t.Errorf("%v CQ %d (%v) key %v: kernel emitted %v, owned %v", tc.s, i, tc.cqs[i], key[:p], got, owned[key])
				return false
			}
			matched += len(owned[key])
			return true
		}

		// A share job: natural order, variable v hashed into 1–3 buckets.
		hashes := make([]graph.NodeHash, p)
		keys := 1
		for v := range hashes {
			hashes[v] = graph.NodeHash{Seed: uint64(seed) + uint64(v), B: 1 + rng.Intn(3)}
			keys *= hashes[v].B
		}
		f.Build(edges, graph.NaturalKey)
		mask := make([]uint16, f.NumNodes())
		for i, q := range tc.cqs {
			owned := ownedBy(q, l, graph.NaturalKey, func(phi []graph.Node) (key graph.BucketKey) {
				for v, u := range phi {
					key[v] = byte(hashes[v].Bucket(u))
				}
				return key
			})
			for n := 0; n < keys; n++ {
				var key graph.BucketKey
				for v, x := 0, n; v < p; v, x = v+1, x/hashes[v].B {
					key[v] = byte(x % hashes[v].B)
				}
				for r := range mask {
					mask[r] = 0
					for v, h := range hashes {
						if h.Bucket(f.ID(int32(r))) == int(key[v]) {
							mask[r] |= 1 << v
						}
					}
				}
				sc.Own = cq.Ownership{Mask: mask}
				if !check(i, key, owned) {
					return false
				}
			}
		}

		// A multiset job: (bucket, id) order over 1–4 buckets.
		h := graph.NodeHash{Seed: uint64(seed), B: 1 + rng.Intn(4)}
		f.Build(edges, h.Key)
		for i, q := range tc.cqs {
			owned := ownedBy(q, l, h.Key, func(phi []graph.Node) graph.BucketKey {
				buckets := make([]int, len(phi))
				for v, u := range phi {
					buckets[v] = h.Bucket(u)
				}
				return graph.MultisetKey(buckets...)
			})
			ok := true
			graph.MultisetKeys(p, h.B, func(key graph.BucketKey, _ []int32) {
				sc.Own = cq.Ownership{Multiset: true, Key: key}
				ok = ok && check(i, key, owned)
			})
			if !ok {
				return false
			}
			// No restriction again: the quota is back to zero.
			sc.Own = cq.Ownership{}
			if got, want := evalSet(q, &f, &sc), bruteForce(q, l, h.Key); !maps.Equal(got, want) {
				t.Errorf("%v CQ %d: a zero Ownership after owned runs emitted %d matches, brute force %d", tc.s, i, len(got), len(want))
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Error(err)
	}
	if matched == 0 {
		t.Error("no key owned a match: the test compares nothing")
	}
}
