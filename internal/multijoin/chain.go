package multijoin

import (
	"context"
	"fmt"

	"subgraphmr/internal/mapreduce"
)

// joinItem is the union input type of one cascade round: either a partial
// path of consecutive attribute bindings or a tuple of the relation being
// joined in.
type joinItem struct {
	Path    []int64 // bindings of X_0 … X_i (nil for tuples)
	Tuple   Tuple
	IsTuple bool
}

// CycleJoinChain evaluates the p-cycle join R_0(X0,X1) ⋈ … ⋈ R_{p-1}(X_{p-1},X0)
// as an explicit cascade of two-way joins, one map-reduce round per
// relation after the first — the conventional plan whose communication the
// paper's one-round algorithms undercut. Round i keys the partial paths by
// their frontier attribute X_i and joins them with R_i; the final round
// keys completed paths by the closing pair (X_{p-1}, X0) and checks them
// against R_{p-1}. Result rows match CycleJoin (one value per attribute);
// the returned chain carries the per-round metrics, making the
// intermediate-relation blowup measurable. Cancelling ctx aborts the round
// in flight and returns ctx.Err() with the chain so far.
func CycleJoinChain(ctx context.Context, rels []*Relation, cfg mapreduce.Config) ([][]int64, *mapreduce.Chain, error) {
	p := len(rels)
	if p < 3 {
		panic("multijoin: cascade needs at least three relations")
	}
	c := mapreduce.NewChain(cfg)

	paths := make([][]int64, 0, rels[0].Size())
	for _, t := range rels[0].Tuples {
		paths = append(paths, []int64{t.A, t.B})
	}

	// Middle rounds: extend paths X0…Xi with R_i to reach X_{i+1}.
	for i := 1; i <= p-2; i++ {
		items := make([]joinItem, 0, len(paths)+rels[i].Size())
		for _, pa := range paths {
			items = append(items, joinItem{Path: pa})
		}
		for _, t := range rels[i].Tuples {
			items = append(items, joinItem{Tuple: t, IsTuple: true})
		}
		var err error
		paths, err = mapreduce.RunRound(ctx, c, mapreduce.Job[joinItem, int64, joinItem, []int64]{
			Name: fmt.Sprintf("extend ⋈ R%d on X%d", i, i),
			Map: func(it joinItem, emit func(int64, joinItem)) {
				if it.IsTuple {
					emit(it.Tuple.A, it)
				} else {
					emit(it.Path[len(it.Path)-1], it)
				}
			},
			Reduce: func(ctx *mapreduce.Context, _ int64, items []joinItem, emit func([]int64)) {
				var ps [][]int64
				var next []int64
				for _, it := range items {
					if it.IsTuple {
						next = append(next, it.Tuple.B)
					} else {
						ps = append(ps, it.Path)
					}
				}
				ctx.AddWork(int64(len(ps)) * int64(len(next)))
				for _, pa := range ps {
					for _, b := range next {
						row := make([]int64, len(pa)+1)
						copy(row, pa)
						row[len(pa)] = b
						emit(row)
					}
				}
			},
		}, items)
		if err != nil {
			return nil, c, err
		}
	}

	// Closing round: a completed path binds every attribute; R_{p-1} must
	// contain the closing edge (X_{p-1}, X0).
	items := make([]joinItem, 0, len(paths)+rels[p-1].Size())
	for _, pa := range paths {
		items = append(items, joinItem{Path: pa})
	}
	for _, t := range rels[p-1].Tuples {
		items = append(items, joinItem{Tuple: t, IsTuple: true})
	}
	rows, err := mapreduce.RunRound(ctx, c, mapreduce.Job[joinItem, [2]int64, joinItem, []int64]{
		Name: fmt.Sprintf("close against R%d on (X%d, X0)", p-1, p-1),
		Map: func(it joinItem, emit func([2]int64, joinItem)) {
			if it.IsTuple {
				emit([2]int64{it.Tuple.A, it.Tuple.B}, it)
			} else {
				emit([2]int64{it.Path[len(it.Path)-1], it.Path[0]}, it)
			}
		},
		Reduce: func(ctx *mapreduce.Context, _ [2]int64, items []joinItem, emit func([]int64)) {
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
	}, items)
	return rows, c, err
}
