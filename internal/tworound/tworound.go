// Package tworound implements triangle enumeration as a cascade of two-way
// joins, each its own map-reduce round — the conventional plan the paper's
// introduction argues against ("the multiway join in a single round of
// map-reduce is more efficient than two-way joins, each performed by its
// own round"). It exists as a measured baseline: its communication
// includes the materialized wedge relation E(X,Y) ⋈ E(Y,Z), which is
// Θ(Σ_v deg(v)²) and explodes on skewed graphs, while the one-round
// algorithms of Section 2 ship each edge only O(b) times.
package tworound

import (
	"context"

	"subgraphmr/internal/graph"
	"subgraphmr/internal/mapreduce"
)

// Result carries the per-round metrics of one cascade run; the triangles
// themselves go to the sink.
type Result struct {
	// Wedges is the size of the intermediate relation shipped to round 2.
	Wedges int64
	// Chain holds the executed rounds: Rounds[0] is the wedge-building
	// join E(X,Y) ⋈ E(Y,Z) keyed by Y, and Rounds[1] joins the wedges with
	// E(X,Z) keyed by the (X, Z) pair — its Outputs is the number of
	// triangles the sink accepted. A cancelled or abandoned cascade has
	// fewer rounds.
	Chain *mapreduce.Chain
	// Abandoned reports that the after-round-1 hook stopped the cascade:
	// round 2 never ran, nothing was delivered, and the caller is expected
	// to finish the query another way (adaptive re-planning switches to a
	// one-round algorithm).
	Abandoned bool
}

// role is a round-1 value: an edge's far endpoint, and which side of the
// wedge it supplies at the key node.
type role struct {
	Other graph.Node
	Left  bool // true: contributes X to E(X,Y); false: contributes Z
}

// wedge is one round-2 input: a wedge (X, Y, Z) out of round 1, or — the
// two relations share one input slice — the edge marker (X, Z).
type wedge struct {
	X, Y, Z graph.Node
	IsEdge  bool
}

type edgeOrWedge struct {
	Y      graph.Node // middle node for wedges; unused for edge markers
	IsEdge bool
}

// Triangles enumerates every triangle exactly once (as X < Y < Z with the
// natural node order) as an explicit two-round chain. Round 1 (the wedge
// join) always materializes — its output is round 2's input — and round 2
// delivers each triangle to sink (serialized, consumer-paced; returning
// false stops the round early with a nil error). A nil sink counts without
// delivering. Cancelling ctx aborts whichever round is running and returns
// ctx.Err(); the Result then carries the metrics of the rounds that ran.
//
// afterRound1, if non-nil, is the mid-query re-planning seam: once round 1
// completes it receives the round's measured metrics and the materialized
// wedge count — the cascade's skew, observed at the cheapest possible point,
// is exactly Metrics.MaxReducerInput vs the mean. Returning false abandons
// the cascade before round 2: the Result carries the round-1 chain with
// Abandoned set, and the caller re-plans the rest of the query.
func Triangles(ctx context.Context, g *graph.Graph, cfg mapreduce.Config, sink func([3]graph.Node) bool, afterRound1 func(round1 mapreduce.Metrics, wedges int64) bool) (Result, error) {
	if sink == nil {
		sink = func([3]graph.Node) bool { return true }
	}
	c := mapreduce.NewChain(cfg)

	// Round 1: key by the shared variable Y. An edge (a, b) with a < b
	// plays role E(X,Y) under key b and role E(Y,Z) under key a.
	//
	// Its output and one marker per edge are round 2's input, collected in
	// one slice allocated at its final size — appending a round's worth of
	// outputs would copy them several times over on the way up. (Under a
	// distributed ownership filter the run keeps an unknown share of the
	// wedges, so there the slice grows.)
	hint := g.NumEdges()
	if cfg.Dist == nil {
		hint += int(WedgeCount(g))
	}
	inputs := make([]wedge, 0, hint)
	err := mapreduce.RunRoundStream(ctx, c, mapreduce.Job[graph.Edge, graph.Node, role, wedge]{
		Name:  "wedge join E(X,Y) ⋈ E(Y,Z)",
		Codec: wedgeJoinCodec{},
		Map: func(e graph.Edge, emit func(graph.Node, role)) {
			emit(e.V, role{Other: e.U, Left: true})  // X = U, Y = V
			emit(e.U, role{Other: e.V, Left: false}) // Y = U, Z = V
		},
		Reduce: joinWedges,
	}, g.Edges(), func(w wedge) bool {
		inputs = append(inputs, w)
		return true
	})
	wedges := int64(len(inputs))
	if err != nil {
		return Result{Wedges: wedges, Chain: c}, err
	}
	if afterRound1 != nil && !afterRound1(c.Rounds[0].Metrics, wedges) {
		return Result{Wedges: wedges, Chain: c, Abandoned: true}, nil
	}

	// Round 2: join the wedges with E(X,Z), keyed by the (X,Z) edge.
	//
	// Under a distributed ownership filter (cfg.Dist) only round 1 is
	// filtered: each triangle has exactly one wedge whose middle is its
	// middle node, so the workers' wedge sets are disjoint and round 2 over
	// worker-local wedges already produces each triangle exactly once. The
	// edge relation is broadcast (re-mapped in full by every worker) because
	// edge markers alone emit nothing — filtering round 2's (X,Z) keys too
	// would instead drop wedges whose closing edge hashes to another worker.
	c.Cfg.Dist = nil
	for _, e := range g.Edges() {
		inputs = append(inputs, wedge{X: e.U, Z: e.V, IsEdge: true})
	}
	round2 := mapreduce.Job[wedge, uint64, edgeOrWedge, [3]graph.Node]{
		Name:  "close wedges against E(X,Z)",
		Codec: closeCodec{},
		Map: func(in wedge, emit func(uint64, edgeOrWedge)) {
			emit((graph.Edge{U: in.X, V: in.Z}).Key(), edgeOrWedge{Y: in.Y, IsEdge: in.IsEdge})
		},
		Reduce: func(ctx *mapreduce.Context, key uint64, values []edgeOrWedge, emit func([3]graph.Node)) {
			hasEdge := false
			for _, v := range values {
				if v.IsEdge {
					hasEdge = true
					break
				}
			}
			if !hasEdge {
				return
			}
			x := graph.Node(key >> 32)
			z := graph.Node(uint32(key))
			for _, v := range values {
				ctx.AddWork(1)
				if !v.IsEdge {
					emit([3]graph.Node{x, v.Y, z})
				}
			}
		},
	}

	err = mapreduce.RunRoundStream(ctx, c, round2, inputs, sink)
	return Result{Wedges: wedges, Chain: c}, err
}

// wedgeSides is what one round-1 reduce worker keeps in its Context's
// Local slot: the two sides of the current middle node, reused across the
// worker's calls.
type wedgeSides struct {
	lefts, rights []graph.Node
}

// joinWedges is round 1's reducer: it splits the roles at middle node y
// into the two sides and emits their product as wedges.
func joinWedges(ctx *mapreduce.Context, y graph.Node, roles []role, emit func(wedge)) {
	s, _ := ctx.Local.(*wedgeSides)
	if s == nil {
		s = new(wedgeSides)
		ctx.Local = s
	}
	lefts, rights := s.lefts[:0], s.rights[:0]
	for _, r := range roles {
		if r.Left {
			lefts = append(lefts, r.Other)
		} else {
			rights = append(rights, r.Other)
		}
	}
	s.lefts, s.rights = lefts, rights
	ctx.AddWork(int64(len(lefts)) * int64(len(rights)))
	for _, x := range lefts {
		for _, z := range rights {
			emit(wedge{X: x, Y: y, Z: z})
		}
	}
}

// Round1LoadStats computes, in O(n + m) without running anything, the exact
// reducer loads of the cascade's round 1: key y receives one value per
// incident edge, so Pairs = 2m, Keys is the number of non-isolated nodes,
// and MaxLoad is the maximum degree — the cascade's skew exposure is the
// degree distribution itself, which is why it collapses on hub graphs.
func Round1LoadStats(g *graph.Graph) mapreduce.LoadStats {
	var ls mapreduce.LoadStats
	for u := 0; u < g.NumNodes(); u++ {
		d := int64(g.Degree(graph.Node(u)))
		if d == 0 {
			continue
		}
		ls.Pairs += d
		ls.Keys++
		if d > ls.MaxLoad {
			ls.MaxLoad = d
		}
	}
	return ls
}

// WedgeCount returns the exact number of ordered wedges Σ over middles of
// (#smaller-id neighbors)·(#larger-id neighbors) — the intermediate
// relation size the cascade must ship.
func WedgeCount(g *graph.Graph) int64 {
	var total int64
	for u := 0; u < g.NumNodes(); u++ {
		var lo, hi int64
		for _, v := range g.Neighbors(graph.Node(u)) {
			if v < graph.Node(u) {
				lo++
			} else {
				hi++
			}
		}
		total += lo * hi
	}
	return total
}
