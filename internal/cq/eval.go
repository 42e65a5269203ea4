package cq

import (
	"fmt"
	"math/bits"
	"slices"

	"subgraphmr/internal/graph"
)

// Evaluator runs one CQ over a fragment of a data graph, as the reducers of
// Section 4 do. The evaluation is a backtracking multiway join in rank
// space: the fragment numbers its nodes by their position in the job's node
// order (graph.Fragment), so "φ(X) precedes φ(Y)" is an integer comparison
// and every constraint on the variable being bound turns into a property of
// a sorted adjacency list. Variables are bound in an order where each new
// variable is adjacent in the sample graph to an already-bound one; its
// candidates are the shortest bound neighbor's list cut down by binary
// search to the rank interval the order constraints leave open, probed
// against the other bound neighbors' lists.
//
// An Evaluator holds only the compiled join plan and is safe for concurrent
// use; all per-run mutable state lives in a Scratch.
type Evaluator struct {
	q     *CQ
	steps []step // one per variable, in binding order
	// exact: the constraints compiled into the steps are the whole condition,
	// so a complete assignment needs no final check.
	exact bool
}

// step is the compiled form of binding one variable v, given the variables
// bound before it. Subgoal orientations and LessCons both fold into below
// and above; adjacency and strict order each imply distinctness, so only
// the bound variables in none of the first three lists need an explicit ≠.
type step struct {
	v        int
	adjacent []int // bound variables whose image must be adjacent to v's
	below    []int // bound variables whose image must precede v's
	above    []int // bound variables whose image must follow v's
	apart    []int // bound variables otherwise unrelated to v
	// The lane clamp of a multiset evaluation: v's image sits at sorted
	// position laneLo or later and laneHi or earlier in every match, because
	// laneLo variables are forced below it and p-1-laneHi above it.
	laneLo, laneHi int
}

// NewEvaluator builds the join plan for q.
func NewEvaluator(q *CQ) *Evaluator {
	p := q.P
	adj := make([][]int, p)
	for _, sg := range q.Subgoals {
		adj[sg.Lo] = append(adj[sg.Lo], sg.Hi)
		adj[sg.Hi] = append(adj[sg.Hi], sg.Lo)
	}
	// Greedy connected plan: start at the max-degree variable; repeatedly
	// pick the unbound variable with the most bound neighbors (ties: more
	// sample edges, then lower index). Falls back to any variable for
	// disconnected samples.
	var plan []int
	bound := make([]bool, p)
	for len(plan) < p {
		best, bestScore := -1, -1
		for v := 0; v < p; v++ {
			if bound[v] {
				continue
			}
			score := 0
			for _, w := range adj[v] {
				if bound[w] {
					score += p // bound neighbors dominate
				}
			}
			score += len(adj[v])
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		bound[best] = true
		plan = append(plan, best)
	}

	// The order every match obeys, in both CQ modes — subgoal orientations
	// and LessCons, closed transitively — as two bitsets per variable: the
	// variables forced below it (lower) and above it (upper). Only multiset
	// evaluations clamp lanes, and their keys hold at most MaxKeyVars.
	var lower, upper [graph.MaxKeyVars]uint16
	if p <= graph.MaxKeyVars {
		for _, sg := range q.Subgoals {
			lower[sg.Hi] |= 1 << sg.Lo
		}
		for _, c := range q.LessCons {
			lower[c.B] |= 1 << c.A
		}
		for k := 0; k < p; k++ {
			for v := 0; v < p; v++ {
				if lower[v]>>k&1 != 0 {
					lower[v] |= lower[k]
				}
			}
		}
		for v := 0; v < p; v++ {
			for w := 0; w < p; w++ {
				if lower[v]>>w&1 != 0 {
					upper[w] |= 1 << v
				}
			}
		}
	}

	ev := &Evaluator{q: q, steps: make([]step, p), exact: q.Orderings == nil || q.ExactSimplified}
	for i, v := range plan {
		st := &ev.steps[i]
		st.v = v
		st.laneHi = p - 1
		if p <= graph.MaxKeyVars {
			others := ^uint16(1 << v)
			st.laneLo = bits.OnesCount16(lower[v] & others)
			st.laneHi -= bits.OnesCount16(upper[v] & others)
		}
		for _, w := range plan[:i] {
			var adjacent, below, above bool
			for _, sg := range q.Subgoals {
				adjacent = adjacent || sg == Subgoal{w, v} || sg == Subgoal{v, w}
				below = below || sg == Subgoal{w, v}
				above = above || sg == Subgoal{v, w}
			}
			for _, c := range q.LessCons {
				below = below || c == Pair{w, v}
				above = above || c == Pair{v, w}
			}
			if adjacent {
				st.adjacent = append(st.adjacent, w)
			}
			if below {
				st.below = append(st.below, w)
			}
			if above {
				st.above = append(st.above, w)
			}
			if !adjacent && !below && !above {
				st.apart = append(st.apart, w)
			}
		}
	}
	return ev
}

// Scratch is the mutable state of evaluations over fragments: the
// assignment under construction, the kernel's work buffers and the
// ownership rule of the call in progress. One Scratch serves any number of
// sequential Eval calls (it sizes itself to each), so a reduce worker that
// keeps one evaluates without allocating. The zero value is ready to use
// and restricts nothing.
type Scratch struct {
	// Stop, when set, is polled once per candidate of the first plan step
	// that ownership leaves — never inside the deeper loops. Once it
	// returns true the evaluation abandons the candidates not yet started
	// and returns the work done so far.
	Stop func() bool
	// Own restricts the next Eval calls to the matches one reducer owns.
	Own Ownership

	phi      []int32   // the assignment, as ranks
	lists    [][]int32 // p narrowed adjacency lists per recursion level
	all      []int32   // 0, 1, 2, …: the candidate list of a step with no bound neighbor
	order    []int     // finalCheck: variables sorted by image
	orderKey []byte    // finalCheck: order as an orderSet key
	halted   bool      // Stop returned true during the current Eval

	// A multiset evaluation's quota and lanes: quota[b] is how many more
	// variables may bind a rank of bucket b, and the key's lane j is the
	// rank range [laneLo[j], laneHi[j]).
	quota          [graph.MaxBuckets + 1]uint8
	laneLo, laneHi [graph.MaxKeyVars]int32
}

// Ownership is the rule by which exactly one reducer keeps each match, in
// the form the kernel prunes with: a variable is never bound to a rank that
// cannot belong to a kept match, so the matches Eval emits are exactly the
// kept ones and the pruned candidates are not counted as work. The zero
// value keeps every match.
type Ownership struct {
	// Mask, when non-nil, is a share job's rule: one word per rank of the
	// fragment, bit v set iff the rank's node hashes to the key's lane v —
	// only such a rank may bind variable v.
	Mask []uint16
	// Multiset selects a multiset job's rule over a fragment laid out in
	// (bucket, id) order: a match is kept iff its sorted node buckets
	// (Fragment.Major) are Key's first p lanes. Each bucket is bound at
	// most as often as Key holds it, and each variable is clamped to the
	// rank range of the lanes the CQ's order leaves it.
	Multiset bool
	Key      graph.BucketKey
}

// prepare sizes the buffers for CQs of p variables over n nodes. Buffers
// sized for a larger arity are resliced, not replaced: a workspace passes
// between jobs of different samples.
func (sc *Scratch) prepare(p, n int) {
	if cap(sc.phi) < p {
		sc.phi = make([]int32, p)
		sc.lists = make([][]int32, p*p)
		sc.order = make([]int, p)
		sc.orderKey = make([]byte, p)
	}
	sc.phi, sc.lists = sc.phi[:p], sc.lists[:p*p]
	for len(sc.all) < n {
		sc.all = append(sc.all, int32(len(sc.all)))
	}
	sc.halted = false
}

// own sets up a multiset evaluation's quota and lanes from the key's first
// p lanes: p increments and a bucket's rank range per lane.
//
//lint:hotpath
func (sc *Scratch) own(f *graph.Fragment, p int) {
	clear(sc.quota[:])
	for j, b := range sc.Own.Key[:p] {
		sc.quota[b]++
		sc.laneLo[j], sc.laneHi[j] = f.BucketRange(int(b))
	}
}

// extend binds the variable of step i to each of its candidates in turn and
// recurses. The candidates are ranks in [lo, hi) — above every image that
// must precede, below every image that must follow, inside the variable's
// lanes in a multiset evaluation — taken from the shortest of the bound
// neighbors' lists; the other lists are probed by a cursor that only moves
// forward, since candidates ascend. A candidate the ownership rule forbids
// for the variable is skipped before it is counted or probed.
//
//lint:hotpath
func (ev *Evaluator) extend(f *graph.Fragment, sc *Scratch, i int, emit func(ranks []int32)) int64 {
	st := &ev.steps[i]
	phi := sc.phi
	lo, hi := int32(0), int32(f.NumNodes())
	for _, w := range st.below {
		if x := phi[w] + 1; x > lo {
			lo = x
		}
	}
	for _, w := range st.above {
		if x := phi[w]; x < hi {
			hi = x
		}
	}
	multiset := sc.Own.Multiset
	if multiset {
		lo = max(lo, sc.laneLo[st.laneLo])
		hi = min(hi, sc.laneHi[st.laneHi])
	}
	if lo >= hi {
		return 0
	}

	var cand []int32
	var others [][]int32
	if len(st.adjacent) == 0 {
		cand = sc.all[lo:hi]
	} else {
		lists := sc.lists[i*len(phi):][:len(st.adjacent)]
		shortest := 0
		for k, w := range st.adjacent {
			l := f.Neighbors(phi[w])
			from, _ := slices.BinarySearch(l, lo)
			to, _ := slices.BinarySearch(l, hi)
			l = l[from:to]
			if len(l) == 0 {
				return 0
			}
			lists[k] = l
			if len(l) < len(lists[shortest]) {
				shortest = k
			}
		}
		lists[0], lists[shortest] = lists[shortest], lists[0]
		cand, others = lists[0], lists[1:]
	}

	last := i == len(ev.steps)-1
	mask, bit := sc.Own.Mask, uint16(1)<<st.v
	var work int64
next:
	for _, c := range cand {
		if mask != nil && mask[c]&bit == 0 {
			continue
		}
		var bucket int
		if multiset {
			if bucket = f.Major(c); sc.quota[bucket] == 0 {
				continue
			}
		}
		if i == 0 && sc.Stop != nil && sc.Stop() {
			sc.halted = true
			break
		}
		work++
		for k, l := range others {
			j, found := slices.BinarySearch(l, c)
			if j == len(l) {
				return work // no later candidate can be in l either
			}
			others[k] = l[j:]
			if !found {
				continue next
			}
		}
		for _, w := range st.apart {
			if phi[w] == c {
				continue next
			}
		}
		phi[st.v] = c
		if multiset {
			sc.quota[bucket]--
		}
		if !last {
			work += ev.extend(f, sc, i+1, emit)
		} else if ev.exact || ev.finalCheck(sc) {
			emit(phi)
		}
		if multiset {
			sc.quota[bucket]++
		}
	}
	return work
}

// finalCheck verifies the ordering-mode condition of a CQ whose simplified
// constraints are not exact against the complete assignment: the variables
// are insertion-sorted by rank and the resulting order is looked up in the
// CQ's accepted-order set without allocating.
//
//lint:hotpath
func (ev *Evaluator) finalCheck(sc *Scratch) bool {
	p := ev.q.P
	order := sc.order[:p]
	for i := 0; i < p; i++ {
		order[i] = i
	}
	// Insertion sort: p is tiny (sample arity), and it avoids the
	// sort.Slice closure machinery on the per-match path.
	for i := 1; i < p; i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && sc.phi[v] < sc.phi[order[j]] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
	key := sc.orderKey[:p]
	for i, v := range order {
		key[i] = byte(v)
	}
	_, ok := ev.q.orderSet[string(key)] // no-alloc map probe
	return ok
}

// EvaluatorSet is a set of CQ evaluators compiled once and shared by every
// reducer invocation of a job (the per-key compilation of join plans used
// to dominate small-fragment reducers). The set is immutable and safe for
// concurrent use by the engine's reduce workers.
type EvaluatorSet struct {
	p     int
	evals []*Evaluator
}

// NewEvaluatorSet compiles every CQ of the set once. The CQs must share one
// arity (as every CQ set generated for a single sample does) because the
// set's evaluations share one scratch assignment; mixed arities panic.
func NewEvaluatorSet(cqs []*CQ) *EvaluatorSet {
	s := &EvaluatorSet{evals: make([]*Evaluator, len(cqs))}
	for i, q := range cqs {
		if i == 0 {
			s.p = q.P
		} else if q.P != s.p {
			panic(fmt.Sprintf("cq: EvaluatorSet mixes arities %d and %d", s.p, q.P))
		}
		s.evals[i] = NewEvaluator(q)
	}
	return s
}

// Split returns one set per compiled CQ, in order, each sharing that CQ's
// compiled evaluator with s — for jobs that evaluate one CQ each.
func (s *EvaluatorSet) Split() []*EvaluatorSet {
	sets := make([]EvaluatorSet, len(s.evals))
	out := make([]*EvaluatorSet, len(s.evals))
	for i := range s.evals {
		sets[i] = EvaluatorSet{p: s.p, evals: s.evals[i : i+1 : i+1]}
		out[i] = &sets[i]
	}
	return out
}

// Len returns the number of compiled CQs.
func (s *EvaluatorSet) Len() int { return len(s.evals) }

// Eval runs every compiled CQ over the fragment, whose rank order is the
// node order the CQs' conditions refer to, and calls emit once per
// satisfying assignment that sc.Own keeps (distinct CQs of a well-formed
// set never produce the same one). The assignment holds ranks — f.ID
// translates — in a buffer of sc that the next match overwrites. Returns
// the total number of candidates examined, not counting those ownership
// pruned; it allocates nothing once sc has seen the arity and the fragment
// size.
func (s *EvaluatorSet) Eval(f *graph.Fragment, sc *Scratch, emit func(ranks []int32)) int64 {
	sc.prepare(s.p, f.NumNodes())
	if sc.Own.Multiset {
		sc.own(f, s.p)
	}
	var work int64
	for _, ev := range s.evals {
		if sc.halted {
			break
		}
		work += ev.extend(f, sc, 0, emit)
	}
	return work
}

// EvaluateAll is Eval for callers holding a Sparse and a comparator rather
// than a Fragment: it ranks local's nodes by less, lays the fragment out in
// that order and runs the same kernel with no ownership rule, translating
// each match back to node ids. The phi passed to emit is a scratch buffer
// shared across the whole call — copy it to retain it. Returns total
// evaluator work.
func (s *EvaluatorSet) EvaluateAll(local *graph.Sparse, less graph.Less, emit func(phi []graph.Node)) int64 {
	var f graph.Fragment
	f.Build(local.Edges(), rankKey(local, less))
	phi := make([]graph.Node, s.p)
	return s.Eval(&f, new(Scratch), func(ranks []int32) {
		for v, r := range ranks {
			phi[v] = f.ID(r)
		}
		emit(phi)
	})
}

// rankKey returns the Fragment key of an arbitrary node order: the node's
// position under less in the high word. Nodes already ascending under less
// (the natural order) cost n-1 comparisons; any other order one sort.
func rankKey(local *graph.Sparse, less graph.Less) func(graph.Node) uint64 {
	nodes := local.Nodes()
	order := make([]int32, len(nodes)) // rank → index into nodes
	sorted := true
	for i := range order {
		order[i] = int32(i)
		sorted = sorted && (i == 0 || less(nodes[i-1], nodes[i]))
	}
	if !sorted {
		slices.SortFunc(order, func(a, b int32) int {
			if less(nodes[a], nodes[b]) {
				return -1
			}
			return 1 // distinct nodes under a strict total order
		})
	}
	pos := make([]uint64, len(nodes)) // index into nodes → rank
	for r, i := range order {
		pos[i] = uint64(r)
	}
	return func(u graph.Node) uint64 {
		i, _ := slices.BinarySearch(nodes, u)
		return pos[i]<<32 | graph.NaturalKey(u)
	}
}
