package multijoin

import (
	"context"
	"fmt"
	"math"

	"subgraphmr/internal/mapreduce"
)

// joinItem is the union input type of one cascade round: either a partial
// path of consecutive attribute bindings or a tuple of the relation being
// joined in. It is fixed-size, so DefaultCodec encodes it when the round
// spills: a path travels as its row number in the round's path table.
type joinItem struct {
	Path    int32 // row of the round's path table (unused for tuples)
	Tuple   Tuple
	IsTuple bool
}

// extension is a middle round's output: path row Path of the round's table
// extended by the binding Next.
type extension struct {
	Path int32
	Next int64
}

// CycleJoinChain evaluates the p-cycle join R_0(X0,X1) ⋈ … ⋈ R_{p-1}(X_{p-1},X0)
// as an explicit cascade of two-way joins, one map-reduce round per
// relation after the first — the conventional plan whose communication the
// paper's one-round algorithms undercut. Round i keys the partial paths by
// their frontier attribute X_i and joins them with R_i; the final round
// keys completed paths by the closing pair (X_{p-1}, X0) and checks them
// against R_{p-1}. The paths of round i live in one flat table of width
// i+1, which round i's outputs extend into the next round's table. Result
// rows match CycleJoin (one value per attribute); the returned chain
// carries the per-round metrics, making the intermediate-relation blowup
// measurable. Fewer than three relations, or a nil one, is an error.
// Cancelling ctx aborts the round in flight and returns ctx.Err() with the
// chain so far. Unlike the triangle cascade (tworound), the rounds are not
// piped with mapreduce.RunPipe: a round's outputs name rows of the path
// table the next round reads, so each round's table must be complete before
// the next starts. Pipelining them is out of scope.
func CycleJoinChain(ctx context.Context, rels []*Relation, cfg mapreduce.Config) ([][]int64, *mapreduce.Chain, error) {
	c := mapreduce.NewChain(cfg)
	p := len(rels)
	if p < 3 {
		return nil, c, fmt.Errorf("multijoin: a cycle join needs at least three relations, got %d", p)
	}
	for i, r := range rels {
		if r == nil {
			return nil, c, fmt.Errorf("multijoin: relation %d is nil", i)
		}
	}

	// paths holds the partial paths X0…X(w-1), one row of w bindings each.
	w := 2
	paths := make([]int64, 0, 2*rels[0].Size())
	for _, t := range rels[0].Tuples {
		paths = append(paths, t.A, t.B)
	}

	// Middle rounds: extend paths X0…Xi with R_i to reach X_{i+1}.
	for i := 1; i <= p-2; i++ {
		items, err := roundItems(paths, w, rels[i])
		if err != nil {
			return nil, c, err
		}
		var next []int64 // the next round's table, w+1 wide
		err = mapreduce.RunRoundStream(ctx, c, mapreduce.Job[joinItem, int64, joinItem, extension]{
			Name: fmt.Sprintf("extend ⋈ R%d on X%d", i, i),
			Map: func(it joinItem, emit func(int64, joinItem)) {
				if it.IsTuple {
					emit(it.Tuple.A, it)
				} else {
					emit(paths[int(it.Path)*w+w-1], it)
				}
			},
			Reduce: func(ctx *mapreduce.Context, _ int64, items []joinItem, emit func(extension)) {
				var ps []int32
				var bs []int64
				for _, it := range items {
					if it.IsTuple {
						bs = append(bs, it.Tuple.B)
					} else {
						ps = append(ps, it.Path)
					}
				}
				ctx.AddWork(int64(len(ps)) * int64(len(bs)))
				for _, pa := range ps {
					for _, b := range bs {
						emit(extension{pa, b})
					}
				}
			},
		}, items, func(e extension) bool {
			row := int(e.Path) * w
			next = append(append(next, paths[row:row+w]...), e.Next)
			return true
		})
		if err != nil {
			return nil, c, err
		}
		paths, w = next, w+1
	}

	// Closing round: a completed path binds every attribute; R_{p-1} must
	// contain the closing edge (X_{p-1}, X0). Only its rows are copied out.
	items, err := roundItems(paths, w, rels[p-1])
	if err != nil {
		return nil, c, err
	}
	var rows [][]int64
	err = mapreduce.RunRoundStream(ctx, c, mapreduce.Job[joinItem, [2]int64, joinItem, int32]{
		Name: fmt.Sprintf("close against R%d on (X%d, X0)", p-1, p-1),
		Map: func(it joinItem, emit func([2]int64, joinItem)) {
			if it.IsTuple {
				emit([2]int64{it.Tuple.A, it.Tuple.B}, it)
			} else {
				row := int(it.Path) * w
				emit([2]int64{paths[row+w-1], paths[row]}, it)
			}
		},
		Reduce: func(ctx *mapreduce.Context, _ [2]int64, items []joinItem, emit func(int32)) {
			closed := false
			for _, it := range items {
				if it.IsTuple {
					closed = true
					break
				}
			}
			for _, it := range items {
				ctx.AddWork(1)
				if closed && !it.IsTuple {
					emit(it.Path)
				}
			}
		},
	}, items, func(pa int32) bool {
		row := int(pa) * w
		rows = append(rows, append([]int64(nil), paths[row:row+w]...))
		return true
	})
	if err != nil {
		return nil, c, err
	}
	return rows, c, nil
}

// roundItems is one round's input: a path item per row of the w-wide path
// table, then a tuple item per tuple of r.
func roundItems(paths []int64, w int, r *Relation) ([]joinItem, error) {
	n := len(paths) / w
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("multijoin: %d partial paths overflow a joinItem's int32 path row", n)
	}
	items := make([]joinItem, 0, n+r.Size())
	for pa := 0; pa < n; pa++ {
		items = append(items, joinItem{Path: int32(pa)})
	}
	for _, t := range r.Tuples {
		items = append(items, joinItem{Tuple: t, IsTuple: true})
	}
	return items, nil
}
