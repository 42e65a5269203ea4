package cq_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"subgraphmr/internal/cq"
	"subgraphmr/internal/cycles"
	"subgraphmr/internal/perm"
	"subgraphmr/internal/sample"
)

// catalogCQCounts is the number of CQs OrbitCQs gives every sample.Named
// entry: the Aut(S)-orbits of its acyclic orientations.
var catalogCQCounts = map[string]int{
	"edge": 1, "twopath": 3, "triangle": 1, "square": 3, "lollipop": 6, "tripath": 12, "q3": 54,
	"c3": 1, "c4": 3, "c5": 3, "c6": 8, "c7": 9, "c8": 21, "c9": 29, "c10": 61, "c11": 93, "c12": 191,
	"k2": 1, "k3": 1, "k4": 1, "k5": 1, "k6": 1, "k7": 1, "k8": 1,
	"path2": 1, "path3": 3, "path4": 4, "path5": 10, "path6": 16, "path7": 36, "path8": 64,
	"star2": 1, "star3": 3, "star4": 4, "star5": 5, "star6": 6, "star7": 7, "star8": 8,
}

// catalogNames lists every name sample.Named recognises.
func catalogNames() []string {
	names := []string{"edge", "twopath", "triangle", "square", "lollipop", "tripath", "q3"}
	for p := 3; p <= 12; p++ {
		names = append(names, fmt.Sprintf("c%d", p))
	}
	for p := 2; p <= 8; p++ {
		names = append(names, fmt.Sprintf("k%d", p), fmt.Sprintf("path%d", p), fmt.Sprintf("star%d", p))
	}
	return names
}

func orbitCQs(t *testing.T, s *sample.Sample) []*cq.CQ {
	t.Helper()
	qs, err := cq.OrbitCQs(s)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func subgoalSet(q *cq.CQ) string {
	sgs := slices.Clone(q.Subgoals)
	slices.SortFunc(sgs, func(a, b cq.Subgoal) int {
		if a.Lo != b.Lo {
			return a.Lo - b.Lo
		}
		return a.Hi - b.Hi
	})
	return fmt.Sprint(sgs)
}

// TestOrbitCQsCatalog pins the CQ count of every catalog sample and, for
// every sample of at most 9 nodes (the Section 3 pipeline walks p!
// orders), that the count never exceeds the merged Section 3 set's and
// that each CQ's subgoals are those of one of its CQs.
func TestOrbitCQsCatalog(t *testing.T) {
	names := catalogNames()
	if len(names) != len(catalogCQCounts) {
		t.Fatalf("%d catalog names, %d pinned counts", len(names), len(catalogCQCounts))
	}
	for _, name := range names {
		s := sample.Named(name)
		if s == nil {
			t.Fatalf("sample.Named(%q) is nil", name)
		}
		qs := orbitCQs(t, s)
		if want := catalogCQCounts[name]; len(qs) != want {
			t.Errorf("%s: %d CQs, want %d", name, len(qs), want)
		}
		if s.P() > 9 || testing.Short() && s.P() > 8 {
			continue
		}
		merged := cq.MergeByOrientation(cq.GenerateForSample(s))
		if len(qs) > len(merged) {
			t.Errorf("%s: %d CQs, more than Section 3's %d", name, len(qs), len(merged))
		}
		section3 := map[string]bool{}
		for _, q := range merged {
			section3[subgoalSet(q)] = true
		}
		for _, q := range qs {
			if !section3[subgoalSet(q)] {
				t.Errorf("%s: %v orients the edges as no Section 3 CQ does", name, q)
			}
		}
	}
}

// TestOrbitCQsEqualSection3 pins the samples whose merged Section 3 set is
// already one CQ per orbit: the two sets are equal, in order, down to the
// rendered condition and the implied pairs the evaluator compiles.
func TestOrbitCQsEqualSection3(t *testing.T) {
	for _, s := range []*sample.Sample{sample.Triangle(), sample.Square(), sample.Lollipop()} {
		got, want := orbitCQs(t, s), cq.MergeByOrientation(cq.GenerateForSample(s))
		if len(got) != len(want) {
			t.Fatalf("%v: %d CQs, Section 3 merges to %d", s, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if !slices.Equal(g.Subgoals, w.Subgoals) || g.String() != w.String() ||
				!slices.Equal(g.LessCons, w.LessCons) || !slices.Equal(g.NeqCons, w.NeqCons) {
				t.Errorf("%v CQ %d:\n got %v %v\nwant %v %v", s, i, g, g.LessCons, w, w.LessCons)
			}
		}
	}
}

// TestOrbitCQsSectionFive: on cycles the orbit count is Section 5's
// minimum CQ count.
func TestOrbitCQsSectionFive(t *testing.T) {
	for p := 3; p <= 12; p++ {
		if got, want := len(orbitCQs(t, sample.Cycle(p))), len(cycles.Generate(p)); got != want {
			t.Errorf("C%d: %d CQs, Section 5 has %d", p, got, want)
		}
	}
}

// TestOrbitCQsTransversal is Theorem 3.1's exactly-once property checked
// on node orders, with no data graph: of the |Aut(S)| orders that one
// instance's matches induce — a coset of Sym(p)/Aut(S) — exactly one is
// accepted, by exactly one CQ.
func TestOrbitCQsTransversal(t *testing.T) {
	for _, name := range catalogNames() {
		s := sample.Named(name)
		if s.P() > 8 {
			continue // p! orders
		}
		qs, auts := orbitCQs(t, s), s.Automorphisms()
		accepts := func(order []int) int {
			n := 0
			for _, q := range qs {
				if q.AcceptsOrdering(order) {
					n++
				}
			}
			return n
		}
		accepted := 0
		perm.ForEach(s.P(), func(order perm.Perm) bool {
			switch accepts(order) {
			case 0:
				return true
			case 1:
			default:
				t.Errorf("%s: order %v accepted by more than one CQ", name, order)
				return false
			}
			accepted++
			for _, a := range auts {
				if img := a.ApplyToList(order); !a.IsIdentity() && accepts(img) != 0 {
					t.Errorf("%s: orders %v and %v of one instance both accepted", name, order, img)
					return false
				}
			}
			return true
		})
		if want := int(perm.Factorial(s.P())) / len(auts); accepted != want {
			t.Errorf("%s: %d orders accepted, want one per coset: %d", name, accepted, want)
		}
	}
}

// TestOrbitCQsLimits: an orientation is a uint64 over the edges and a
// least extension packs 16 nodes, so larger samples are an error.
func TestOrbitCQsLimits(t *testing.T) {
	if _, err := cq.OrbitCQs(sample.Complete(12)); err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("K12 (66 edges): %v, want an error naming the 64-edge limit", err)
	}
	if _, err := cq.OrbitCQs(sample.Path(17)); err == nil || !strings.Contains(err.Error(), "16") {
		t.Errorf("17-node path: %v, want an error naming the 16-node limit", err)
	}
}
