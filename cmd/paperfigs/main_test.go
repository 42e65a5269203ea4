package main

import "testing"

// TestSection5IsProduction: on C_3…C_12 the Section 5 run-sequence class
// count — the paper's minimum number of cycle CQs — is the number of CQs
// the planner compiles with no option.
func TestSection5IsProduction(t *testing.T) {
	for p := 3; p <= 12; p++ {
		if classes, production := sec5Counts(p); classes != production {
			t.Errorf("C_%d: Section 5 has %d classes, production compiles %d CQs", p, classes, production)
		}
	}
}
