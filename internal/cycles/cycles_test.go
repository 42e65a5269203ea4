package cycles

import (
	"fmt"
	"testing"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/graph"
	"subgraphmr/internal/sample"
	"subgraphmr/internal/serial"
)

// TestCycleCQCounts checks the minimum CQ counts: triangle 1, square 3,
// pentagon 3 (Example 5.3), heptagon 9 (Example 5.5) — and hexagon 8.
// The paper's Examples 5.4/5.5 both claim 7 hexagon classes but give two
// mutually inconsistent lists; the classes {1122, 2211} and {1221, 2112}
// are distinct under the paper's own equivalence (even-run rotation +
// flip), so 8 CQs are required. The exactly-once property test below
// confirms 8 is correct and minimal members are disjoint.
func TestCycleCQCounts(t *testing.T) {
	want := map[int]int{3: 1, 4: 3, 5: 3, 6: 8, 7: 9}
	for p, n := range want {
		got := Generate(p)
		if len(got) != n {
			var ors []string
			for _, c := range got {
				ors = append(ors, c.Orientation)
			}
			t.Errorf("p=%d: %d CQs %v, want %d", p, len(got), ors, n)
		}
	}
}

// TestPentagonThreeCQs reproduces Example 5.3: the three pentagon classes
// are those of udddd, uuddd and uduud.
func TestPentagonThreeCQs(t *testing.T) {
	got := Generate(5)
	if len(got) != 3 {
		t.Fatalf("pentagon: %d CQs", len(got))
	}
	wantClasses := map[string]bool{
		Canon("udddd"): true,
		Canon("uuddd"): true,
		Canon("uduud"): true,
	}
	for _, c := range got {
		if !wantClasses[c.Orientation] {
			t.Errorf("unexpected pentagon class %q", c.Orientation)
		}
		if c.Palindrome || c.Period != 5 {
			t.Errorf("pentagon class %q should be aperiodic non-palindrome", c.Orientation)
		}
	}
	// Example 5.2: ududd and uddud are cyclic-shift equivalent; Example 5.3:
	// the flip of ududd is uudud, equivalent to uduud.
	if Canon("ududd") != Canon("uddud") {
		t.Error("ududd and uddud should be in the same class")
	}
	if Flip("ududd") != "uudud" {
		t.Errorf("Flip(ududd) = %q, want uudud", Flip("ududd"))
	}
	if Canon("uudud") != Canon("uduud") {
		t.Error("uudud and uduud should be in the same class")
	}
	// Example 5.3 also notes flip(udddd) = uuuud and flip(uuddd) = uuudd.
	if Flip("udddd") != "uuuud" || Flip("uuddd") != "uuudd" {
		t.Error("flips of Example 5.3 wrong")
	}
}

// TestHexagonClasses covers Examples 5.4/5.5. The union of the run
// sequences the paper names across both examples — 15, 24, 33, 1113
// (≡1131 by flip), 1122, 1212, 1221 (≡2112), 111111 — is exactly the 8
// true classes. (Each example drops one of 1113/1221 and claims 7; the
// Example 5.5 "corrections" count miscounts because 2112/1221 are not
// cyclic shifts of 1122 — see EXPERIMENTS.md.)
func TestHexagonClasses(t *testing.T) {
	got := Generate(6)
	if len(got) != 8 {
		t.Fatalf("hexagon: %d CQs", len(got))
	}
	gotSet := map[string]bool{}
	for _, c := range got {
		gotSet[c.Orientation] = true
	}
	paperRuns := [][]int{
		{1, 1, 1, 1, 1, 1}, {1, 1, 2, 2}, {1, 2, 1, 2}, {1, 1, 1, 3},
		{1, 2, 2, 1}, {1, 5}, {2, 4}, {3, 3},
	}
	canonSet := map[string]bool{}
	for _, runs := range paperRuns {
		s := FromRunLengths(runs)
		c := Canon(s)
		canonSet[c] = true
		if !gotSet[c] {
			t.Errorf("run sequence %v (string %q, canon %q) not among generated classes",
				runs, s, Canon(s))
		}
	}
	if len(canonSet) != 8 {
		t.Errorf("the 8 named run sequences canonicalize to %d classes, want 8", len(canonSet))
	}
	// 1113 and 1131 are the same class (flip); so are 1221 and 2112.
	if Canon(FromRunLengths([]int{1, 1, 1, 3})) != Canon(FromRunLengths([]int{1, 1, 3, 1})) {
		t.Error("1113 and 1131 should be flip-equivalent")
	}
	if Canon(FromRunLengths([]int{1, 2, 2, 1})) != Canon(FromRunLengths([]int{2, 1, 1, 2})) {
		t.Error("1221 and 2112 should be rotation-equivalent")
	}
	if Canon(FromRunLengths([]int{1, 2, 2, 1})) == Canon(FromRunLengths([]int{1, 1, 2, 2})) {
		t.Error("1221 and 1122 are distinct classes (contra Example 5.5's correction count)")
	}
	// ududud is 2-periodic and palindromic; uuuddd is palindromic; uduudd
	// (1122) has the shifted reflection the paper's step 4 misses.
	for _, c := range got {
		switch c.Orientation {
		case Canon("ududud"):
			if c.Period != 2 || !c.Palindrome {
				t.Errorf("ududud class: period=%d palindrome=%v", c.Period, c.Palindrome)
			}
		case Canon("uuuddd"):
			if c.Period != 6 || !c.Palindrome {
				t.Errorf("uuuddd class: period=%d palindrome=%v", c.Period, c.Palindrome)
			}
		case Canon("uduudd"):
			if c.Palindrome || len(c.Reflections) == 0 {
				t.Errorf("uduudd class: palindrome=%v reflections=%v; want shifted reflection only",
					c.Palindrome, c.Reflections)
			}
		}
	}
}

// TestHeptagonClasses checks Example 5.5's count of nine heptagon classes.
// The paper's list (111112, 1123, 1132, 1222, 1213, 1114, 16, 25, 34)
// contains one equivalent pair — flip(1123) is a rotation of 1132 — and
// omits the class of 1231; the count 9 is nonetheless correct.
func TestHeptagonClasses(t *testing.T) {
	got := Generate(7)
	if len(got) != 9 {
		t.Fatalf("heptagon: %d CQs", len(got))
	}
	gotSet := map[string]bool{}
	for _, c := range got {
		gotSet[c.Orientation] = true
	}
	paperRuns := [][]int{
		{1, 1, 1, 1, 1, 2}, {1, 1, 2, 3}, {1, 1, 3, 2}, {1, 2, 2, 2},
		{1, 2, 1, 3}, {1, 1, 1, 4}, {1, 6}, {2, 5}, {3, 4},
	}
	canonSet := map[string]bool{}
	for _, runs := range paperRuns {
		canonSet[Canon(FromRunLengths(runs))] = true
	}
	// 1123 ≡ 1132, so the paper's nine names cover only 8 distinct classes.
	if len(canonSet) != 8 {
		t.Fatalf("paper's nine run sequences canonicalize to %d classes, want 8 (1123 ≡ 1132)", len(canonSet))
	}
	if Canon(FromRunLengths([]int{1, 1, 2, 3})) != Canon(FromRunLengths([]int{1, 1, 3, 2})) {
		t.Error("1123 and 1132 should be flip-equivalent")
	}
	for c := range canonSet {
		if !gotSet[c] {
			t.Errorf("paper class %q missing from generated set", c)
		}
	}
	// The ninth class is the one the paper's list omits: 1231 (≡ 1321).
	if !gotSet[Canon(FromRunLengths([]int{1, 2, 3, 1}))] {
		t.Error("class of 1231 missing from generated set")
	}
	// 7 is prime: the conditional upper bound is exact and none of the
	// classes is periodic or palindromic or shift-reflective.
	for _, c := range got {
		if c.Period != 7 || c.Palindrome || len(c.Reflections) != 0 {
			t.Errorf("heptagon class %q: period=%d palindrome=%v refl=%v",
				c.Orientation, c.Period, c.Palindrome, c.Reflections)
		}
	}
}

// TestConditionalUpperBound: (2^p−2)/(2p) bounds the class count, with
// equality for prime p (no periodicity, no palindromes — Section 5.3).
func TestConditionalUpperBound(t *testing.T) {
	for p := 3; p <= 11; p++ {
		got := len(Generate(p))
		bound := ConditionalUpperBound(p)
		if isPrime(p) {
			if float64(got) != bound {
				t.Errorf("p=%d prime: %d classes, conditional bound %v should be exact", p, got, bound)
			}
		} else if float64(got) < bound {
			t.Errorf("p=%d: %d classes below the conditional bound %v (corrections only add)", p, got, bound)
		}
	}
}

func isPrime(n int) bool {
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return n > 1
}

// TestRunLengthRoundTrip checks RunLengths/FromRunLengths inverses.
func TestRunLengthRoundTrip(t *testing.T) {
	for _, s := range []string{"ud", "uuddd", "ududud", "uuuuud"} {
		if FromRunLengths(RunLengths(s)) != s {
			t.Errorf("round trip failed for %q", s)
		}
	}
	runs := RunLengths("uudddud")
	want := []int{2, 3, 1, 1}
	if fmt.Sprint(runs) != fmt.Sprint(want) {
		t.Errorf("RunLengths = %v, want %v", runs, want)
	}
}

// TestCycleCQsExactlyOnce is the Theorem 5.1 property test: applying the
// generated CQ set to a data graph discovers every p-cycle exactly once.
func TestCycleCQsExactlyOnce(t *testing.T) {
	for p := 3; p <= 8; p++ {
		for seed := int64(0); seed < 3; seed++ {
			g := graph.Gnm(13, 32, seed)
			local := graph.SparseFromEdges(g.Edges())
			cp := sample.Cycle(p)
			seen := map[string]bool{}
			count := 0
			for _, c := range Generate(p) {
				cq.NewEvaluatorSet([]*cq.CQ{c.CQ}).EvaluateAll(local, graph.NaturalLess, func(phi []graph.Node) {
					count++
					// phi maps X1..Xp around the cycle; every consecutive
					// pair must be an edge.
					for i := 0; i < p; i++ {
						if !g.HasEdge(phi[i], phi[(i+1)%p]) {
							t.Fatalf("p=%d: CQ %q produced a non-cycle %v", p, c.Orientation, phi)
						}
					}
					k := cp.Key(phi)
					if seen[k] {
						t.Fatalf("p=%d seed %d: cycle %v found twice (CQ %q)", p, seed, phi, c.Orientation)
					}
					seen[k] = true
				})
			}
			want := serial.CountCycles(g, p)
			if int64(count) != want {
				t.Fatalf("p=%d seed %d: CQ set found %d cycles, oracle %d", p, seed, count, want)
			}
		}
	}
}

// TestCycleCQsHashOrder: the CQ set remains exactly-once under the
// hash-then-id node order of Section 2.3, evaluated as a bucket-oriented
// reducer lays its group out (with no ownership rule).
func TestCycleCQsHashOrder(t *testing.T) {
	g := graph.Gnm(14, 36, 2)
	var f graph.Fragment
	f.Build(g.Edges(), graph.NodeHash{Seed: 3, B: 5}.Key)
	for _, p := range []int{5, 6} {
		count := 0
		seen := map[string]bool{}
		cp := sample.Cycle(p)
		phi := make([]graph.Node, p)
		for _, c := range Generate(p) {
			cq.NewEvaluatorSet([]*cq.CQ{c.CQ}).Eval(&f, new(cq.Scratch), func(ranks []int32) {
				for v, r := range ranks {
					phi[v] = f.ID(r)
				}
				count++
				k := cp.Key(phi)
				if seen[k] {
					t.Fatalf("p=%d: duplicate under hash order", p)
				}
				seen[k] = true
			})
		}
		if int64(count) != serial.CountCycles(g, p) {
			t.Fatalf("p=%d: hash order found %d, oracle %d", p, count, serial.CountCycles(g, p))
		}
	}
}

// TestFewerCQsThanGeneralMethod confirms the Section 5 motivation: for
// cycles, the run-sequence method needs no more CQs than the Section 3
// method (pentagon: 3 vs 7 after orientation merging).
func TestFewerCQsThanGeneralMethod(t *testing.T) {
	for p := 4; p <= 7; p++ {
		general := len(cq.MergeByOrientation(cq.GenerateForSample(sample.Cycle(p))))
		specialized := len(Generate(p))
		if specialized > general {
			t.Errorf("p=%d: run-sequence method uses %d CQs > general method's %d", p, specialized, general)
		}
	}
	// The paper's concrete comparison is "7 vs 3" for the pentagon under
	// its chosen coset representatives (X1 least, X2 < X5); our
	// lexicographic representatives merge into 6 orientations — one better
	// — because the merged count depends on the representative choice.
	if g := len(cq.MergeByOrientation(cq.GenerateForSample(sample.Cycle(5)))); g > 7 {
		t.Errorf("general method on C5 gives %d merged CQs; the paper's choice gives 7", g)
	}
	if s := len(Generate(5)); s != 3 {
		t.Errorf("run-sequence method on C5 gives %d CQs, paper says 3", s)
	}
}

func TestCanonIdempotentAndClassClosed(t *testing.T) {
	for p := 3; p <= 9; p++ {
		for _, c := range Generate(p) {
			if Canon(c.Orientation) != c.Orientation {
				t.Errorf("canonical form %q not fixed by Canon", c.Orientation)
			}
			for _, member := range Class(c.Orientation) {
				if Canon(member) != c.Orientation {
					t.Errorf("class member %q canonicalizes to %q, not %q",
						member, Canon(member), c.Orientation)
				}
			}
		}
	}
}

func TestGeneratePanicsOnSmallP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p < 3")
		}
	}()
	Generate(2)
}
