package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestTriangleGolden pins the full report for the triangle sample — the
// Section 3 orderings, quotient and merge, the production set and the
// Section 4.3 share optimization over it — the smallest sample with a
// complete report.
func TestTriangleGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sample", "triangle", "-shares", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	want := `sample graph: sample(p=3: X-Y X-Z Y-Z)
automorphism group: 6 elements; Sym(3) has 6; quotient size 1

== 1 CQs, one per coset of Sym(p)/Aut(S) (Theorem 3.1) ==
  1. E(X,Y) & E(X,Z) & E(Y,Z) & X<Y & Y<Z

== orientation groups (Fig. 6 style) ==
group 1: CQs [1]

== 1 merged CQs with OR-ed conditions (Section 3.3, Fig. 7 style) ==
  1. E(X,Y) & E(X,Z) & E(Y,Z) & X<Y & Y<Z

== 1 production CQs (one per Aut-orbit of acyclic orientations) ==
  1. E(X,Y) & E(X,Z) & E(Y,Z) & X<Y & Y<Z

== edge orientations across the production set (Section 4.3) ==
  X-Y: unidirectional (relation size e)
  X-Z: unidirectional (relation size e)
  Y-Z: unidirectional (relation size e)

== optimal shares for k=64 reducers (variable-oriented) ==
  share(X) = 4.000
  share(Y) = 4.000
  share(Z) = 4.000
  communication cost: 12.00 per data edge
  integer shares [4 4 4] -> 12.00 per edge, 64 reducers
`
	if got := out.String(); got != want {
		t.Fatalf("triangle report:\n%s\nwant:\n%s", got, want)
	}
}

// TestCycleGolden pins the Section 5 run-sequence generator for C_3.
func TestCycleGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-cycle", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	want := `== Section 5 run-sequence CQs for C_3: 1 classes ==
conditional upper bound (2^p-2)/(2p) = 1.00

 1. orientation udd  runs [1 2]
    E(X1,X2) & E(X3,X2) & E(X1,X3) & X3<X2 & X1<X3
`
	if got := out.String(); got != want {
		t.Fatalf("C_3 report:\n%s\nwant:\n%s", got, want)
	}
}

// TestSquareCQCount checks the Theorem 3.1 coset count for the square:
// 4!/|Aut(C_4)| = 24/8 = 3 CQs.
func TestSquareCQCount(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sample", "square"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== 3 CQs, one per coset") {
		t.Fatalf("square report lacks the 3-coset header:\n%s", out.String())
	}
}

// TestProductionCQCounts pins the production section beside Section 3's
// merge: C_5 drops from 6 merged CQs to Section 5's 3, and the lollipop,
// where the merge is already one CQ per orbit, keeps its 6.
func TestProductionCQCounts(t *testing.T) {
	for _, tc := range []struct {
		sample         string
		merged, orbits int
	}{{"c5", 6, 3}, {"lollipop", 6, 6}} {
		var out strings.Builder
		if err := run([]string{"-sample", tc.sample}, &out); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf("== %d merged CQs with OR-ed conditions", tc.merged),
			fmt.Sprintf("== %d production CQs (one per Aut-orbit of acyclic orientations) ==", tc.orbits),
		} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s report lacks %q:\n%s", tc.sample, want, out.String())
			}
		}
	}
}

func TestBadInvocations(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sample", "nope"}, &out); err == nil || !strings.Contains(err.Error(), "unknown sample") {
		t.Fatalf("unknown sample: got %v", err)
	}
	if err := run(nil, &out); err != errUsage {
		t.Fatalf("no arguments: got %v, want errUsage", err)
	}
}
