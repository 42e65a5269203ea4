// Package tworound implements triangle enumeration as a cascade of two-way
// joins, each its own map-reduce round — the conventional plan the paper's
// introduction argues against ("the multiway join in a single round of
// map-reduce is more efficient than two-way joins, each performed by its
// own round"). It exists as a measured baseline: its communication
// includes the wedge relation E(X,Y) ⋈ E(Y,Z), which is
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
	// Wedges is the size of the intermediate relation round 1 hands to
	// round 2.
	Wedges int64
	// Rounds holds the executed rounds: Rounds[0] is the wedge-building
	// join E(X,Y) ⋈ E(Y,Z) keyed by Y, and Rounds[1] joins the wedges with
	// E(X,Z) keyed by the (X, Z) pair — its Outputs is the number of
	// triangles the sink accepted.
	Rounds [2]mapreduce.RoundStats
}

// role is a round-1 value: an edge's far endpoint, and which side of the
// wedge it supplies at the key node.
type role struct {
	Other graph.Node
	Left  bool // true: contributes X to E(X,Y); false: contributes Z
}

// wedge is one round-1 output and round-2 input: the wedge (X, Y, Z).
type wedge struct {
	X, Y, Z graph.Node
}

// edgeOrWedge is a round-2 value: a wedge's middle node, or the marker of
// the edge (X, Z) itself.
type edgeOrWedge struct {
	Y      graph.Node // middle node for wedges; unused for edge markers
	IsEdge bool
}

// Triangles enumerates every triangle exactly once (as X < Y < Z with the
// natural node order) as two explicit rounds, run as a pipe
// (mapreduce.RunPipe): round 1's reducers map each wedge they build
// straight into round 2's shuffle, and round 2's map workers map the edge
// markers alongside, so the wedge relation is shipped but never
// materialised. Round 2 delivers each triangle to sink (serialized,
// consumer-paced; returning false stops the cascade early with a nil
// error). A nil sink counts without delivering. Cancelling ctx aborts both
// rounds and returns ctx.Err(); the Result then carries their partial
// metrics.
//
// Under a distributed ownership filter (cfg.Dist) only round 1 is
// filtered: each triangle has exactly one wedge whose middle is its middle
// node, so the workers' wedge sets are disjoint and round 2 over
// worker-local wedges already produces each triangle exactly once. The edge
// relation is broadcast (re-mapped in full by every worker) because edge
// markers alone emit nothing — filtering round 2's (X,Z) keys too would
// instead drop wedges whose closing edge hashes to another worker.
func Triangles(ctx context.Context, g *graph.Graph, cfg mapreduce.Config, sink func([3]graph.Node) bool) (Result, error) {
	if sink == nil {
		sink = func([3]graph.Node) bool { return true }
	}
	// Round 1: key by the shared variable Y. An edge (a, b) with a < b
	// plays role E(X,Y) under key b and role E(Y,Z) under key a.
	round1 := mapreduce.Job[graph.Edge, graph.Node, role, wedge]{
		Name:  "wedge join E(X,Y) ⋈ E(Y,Z)",
		Codec: wedgeJoinCodec{},
		Map: func(e graph.Edge, emit func(graph.Node, role)) {
			emit(e.V, role{Other: e.U, Left: true})  // X = U, Y = V
			emit(e.U, role{Other: e.V, Left: false}) // Y = U, Z = V
		},
		Reduce: joinWedges,
	}
	// Round 2: join the wedges with E(X,Z), keyed by the (X,Z) edge.
	round2 := mapreduce.Job[wedge, uint64, edgeOrWedge, [3]graph.Node]{
		Name:  "close wedges against E(X,Z)",
		Codec: closeCodec{},
		Map: func(w wedge, emit func(uint64, edgeOrWedge)) {
			emit((graph.Edge{U: w.X, V: w.Z}).Key(), edgeOrWedge{Y: w.Y})
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
	markEdge := func(e graph.Edge, emit func(uint64, edgeOrWedge)) {
		emit(e.Key(), edgeOrWedge{IsEdge: true})
	}
	rounds, err := mapreduce.RunPipe(ctx, cfg, round1, g.Edges(), round2, markEdge, sink)
	return Result{Wedges: rounds[0].Metrics.Outputs, Rounds: rounds}, err
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
