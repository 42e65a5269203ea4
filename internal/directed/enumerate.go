package directed

import (
	"context"
	"fmt"
	"sort"

	"subgraphmr/internal/core"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
	"subgraphmr/internal/serial"
	"subgraphmr/internal/shares"
)

// EnumerateContext finds every instance of the pattern in g exactly once
// with one round of map-reduce, using the bucket-oriented scheme of
// Section 4.5 adapted to directed labeled relations: each arc reaches the
// C(b+p-3, p-2) reducers whose bucket multiset contains its endpoint
// buckets (stored once, in the block of that bucket pair, which those
// reducers read); each reducer searches its fragment; an instance is
// emitted only by the reducer owning its bucket multiset, in canonical
// (automorphism-least) form.
//
// opt supplies the bucket count (opt.BucketsFor), the seed and the engine
// configuration; the result is the one core.Result, with a single job. A
// nil sink materializes Result.Instances; a non-nil sink receives each
// instance instead (serialized, with backpressure; returning false stops
// the job early with a nil error). Result.Count is the instances delivered
// either way. Cancelling ctx aborts the job and returns ctx.Err().
func EnumerateContext(ctx context.Context, g *DiGraph, pt *DiPattern, opt core.Options, sink func([]graph.Node) bool) (*core.Result, error) {
	switch {
	case g == nil:
		return nil, fmt.Errorf("directed: the data graph is nil")
	case pt == nil:
		return nil, fmt.Errorf("directed: the pattern is nil")
	case !pt.IsWeaklyConnected():
		return nil, fmt.Errorf("directed: pattern must be weakly connected")
	}
	p := pt.P()
	b, err := opt.BucketsFor(p)
	if err != nil {
		return nil, fmt.Errorf("directed: %w", err)
	}
	if err := graph.CheckKey(p, b); err != nil {
		return nil, fmt.Errorf("directed: %w", err)
	}
	h := graph.NodeHash{Seed: opt.Seed + 0x6a09e667f3bcc909, B: b}

	plan := searchPlan(pt)
	reducer := func(ctx *mapreduce.Context, key graph.BucketKey, arcs []Arc, emit func([]graph.Node)) {
		frag := buildFragment(arcs)
		buckets := make([]int, p)
		ctx.AddWork(enumerateFragment(frag, pt, plan, func(phi []graph.Node) {
			for i, u := range phi {
				buckets[i] = h.Bucket(u)
			}
			if graph.MultisetKey(buckets...) == key && pt.IsCanonical(phi) {
				emit(append([]graph.Node(nil), phi...))
			}
		}))
	}
	job := mapreduce.BlockJob[Arc, graph.BucketKey, Arc, []graph.Node]{
		Name:   fmt.Sprintf("directed bucket-oriented b=%d", b),
		Blocks: graph.PairBlocks(b),
		Map:    arcMapper{h}.Map,
		Keys:   func(yield func(graph.BucketKey, []int32)) { graph.MultisetKeys(p, b, yield) },
		Reduce: reducer,
		Codec:  graph.EdgeKeyCodec{P: p},
	}
	res := &core.Result{}
	if sink == nil {
		sink = func(phi []graph.Node) bool {
			res.Instances = append(res.Instances, phi)
			return true
		}
	}
	metrics, err := job.RunStream(ctx, opt.Engine, g.Arcs(), sink)
	if err != nil {
		return nil, err
	}
	res.Count = metrics.Outputs
	res.Jobs = []core.JobStats{{
		Label:                job.Name,
		Shares:               shares.Uniform(p, b),
		PredictedCommPerEdge: PredictedCommPerArc(b, p),
		OptimalCommPerEdge:   PredictedCommPerArc(b, p),
		Metrics:              metrics,
		ObservedSkew:         metrics.Skew(),
	}}
	return res, nil
}

// arcMapper is the map side of the Section 4.5 scheme over arcs: an arc is
// stored in the block of its endpoints' bucket pair, whichever way it points.
type arcMapper struct{ h graph.NodeHash }

//lint:hotpath
func (m arcMapper) Map(a Arc, emit func(int, Arc)) {
	emit(graph.PairBlock(m.h.B, m.h.Bucket(a.From), m.h.Bucket(a.To)), a)
}

// PredictedCommPerArc is the per-arc replication of the scheme:
// C(b+p-3, p-2), as in the undirected bucket-oriented method.
func PredictedCommPerArc(b, p int) float64 { return shares.BucketEdgeReplication(b, p) }

// fragment is the directed labeled subgraph a reducer receives.
type fragment struct {
	out map[graph.Node][]Arc
	in  map[graph.Node][]Arc
	set map[Arc]struct{}
}

func buildFragment(arcs []Arc) *fragment {
	f := &fragment{
		out: make(map[graph.Node][]Arc),
		in:  make(map[graph.Node][]Arc),
		set: make(map[Arc]struct{}, len(arcs)),
	}
	for _, a := range arcs {
		if _, dup := f.set[a]; dup {
			continue
		}
		f.set[a] = struct{}{}
		f.out[a.From] = append(f.out[a.From], a)
		f.in[a.To] = append(f.in[a.To], a)
	}
	return f
}

// planStep binds one pattern node: anchored on an earlier-bound node via
// one pattern arc, plus the checks against all earlier-bound nodes.
type planStep struct {
	node   int
	anchor int  // earlier node the candidate list comes from (-1 for first)
	viaOut bool // candidates from out-arcs of anchor's image (else in-arcs)
	viaLbl Label
	checks []PatternArc // pattern arcs between node and earlier nodes
}

// searchPlan orders the pattern nodes so each is adjacent (in either
// direction) to an earlier one — possible because the pattern is weakly
// connected.
func searchPlan(pt *DiPattern) []planStep {
	p := pt.P()
	bound := make([]bool, p)
	var plan []planStep
	// Start at the node with the most incident arcs.
	deg := make([]int, p)
	for _, a := range pt.arcs {
		deg[a.From]++
		deg[a.To]++
	}
	for len(plan) < p {
		best, bestScore := -1, -1
		for v := 0; v < p; v++ {
			if bound[v] {
				continue
			}
			score := deg[v]
			for _, a := range pt.arcs {
				if a.From == v && bound[a.To] || a.To == v && bound[a.From] {
					score += 100
				}
			}
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		step := planStep{node: best, anchor: -1}
		for _, a := range pt.arcs {
			switch {
			case a.From == best && bound[a.To]:
				if step.anchor == -1 {
					step.anchor, step.viaOut, step.viaLbl = a.To, false, a.Label
				}
				step.checks = append(step.checks, a)
			case a.To == best && bound[a.From]:
				if step.anchor == -1 {
					step.anchor, step.viaOut, step.viaLbl = a.From, true, a.Label
				}
				step.checks = append(step.checks, a)
			}
		}
		bound[best] = true
		plan = append(plan, step)
	}
	return plan
}

// enumerateFragment backtracks over the plan, emitting every injective
// assignment whose pattern arcs all exist in the fragment. Returns
// candidates examined (reducer work).
func enumerateFragment(f *fragment, pt *DiPattern, plan []planStep, emit func([]graph.Node)) int64 {
	p := pt.P()
	phi := make([]graph.Node, p)
	var work int64
	var extend func(step int)
	extend = func(step int) {
		if step == p {
			emit(phi)
			return
		}
		st := plan[step]
		var candidates []graph.Node
		if st.anchor >= 0 {
			// Arcs of the anchor image with the right label and direction.
			if st.viaOut {
				for _, a := range f.out[phi[st.anchor]] {
					if a.Label == st.viaLbl {
						candidates = append(candidates, a.To)
					}
				}
			} else {
				for _, a := range f.in[phi[st.anchor]] {
					if a.Label == st.viaLbl {
						candidates = append(candidates, a.From)
					}
				}
			}
		} else {
			// First node: every fragment node (sources and destinations).
			seen := map[graph.Node]bool{}
			for u := range f.out {
				if !seen[u] {
					seen[u] = true
					candidates = append(candidates, u)
				}
			}
			for u := range f.in {
				if !seen[u] {
					seen[u] = true
					candidates = append(candidates, u)
				}
			}
		}
	cand:
		for _, c := range candidates {
			work++
			for s := 0; s < step; s++ {
				if phi[plan[s].node] == c {
					continue cand
				}
			}
			phi[st.node] = c
			for _, a := range st.checks {
				from, to := c, phi[a.To]
				if a.To == st.node {
					from, to = phi[a.From], c
				}
				if _, ok := f.set[Arc{from, to, a.Label}]; !ok {
					continue cand
				}
			}
			extend(step + 1)
		}
	}
	extend(0)
	return work
}

// BruteForce enumerates every instance of the pattern exactly once by
// exhaustive search — the directed oracle. It shares nothing with the
// reducers' matcher: serial.BruteForce finds every instance of the
// pattern's undirected skeleton in the graph's undirected skeleton, each is
// expanded over the skeleton's automorphisms into all its assignments, and
// the assignments that are instances of the pattern (directions and labels
// included) and canonical under its own automorphisms are kept, sorted.
func BruteForce(g *DiGraph, pt *DiPattern) [][]graph.Node {
	skel := pt.skeleton()
	dataEdges := make([]graph.Edge, len(g.arcs))
	for i, a := range g.arcs {
		dataEdges[i] = graph.Edge{U: a.From, V: a.To}
	}
	seen := map[string]bool{}
	var out [][]graph.Node
	for _, psi := range serial.BruteForce(graph.FromEdges(g.n, dataEdges), skel) {
		for _, a := range skel.Automorphisms() {
			phi := make([]graph.Node, len(psi))
			for i := range phi {
				phi[i] = psi[a[i]]
			}
			if k := fmt.Sprint(phi); !seen[k] && pt.IsInstance(g, phi) && pt.IsCanonical(phi) {
				seen[k] = true
				out = append(out, phi)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}
