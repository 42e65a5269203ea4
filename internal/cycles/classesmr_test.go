package cycles

import (
	"fmt"
	"testing"

	"subgraphmr/internal/mapreduce"
)

// TestClassCountsMRMatchesSerial checks the map-reduce class counting
// against the serial generator: same classes, member counts summing to the
// 2^(p-2) valid strings, and class sizes matching Class().
func TestClassCountsMRMatchesSerial(t *testing.T) {
	for _, p := range []int{3, 4, 5, 6, 8, 10} {
		classes, m, err := ClassCountsMR(t.Context(), p, mapreduce.Config{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := CanonicalOrientations(p)
		if len(classes) != len(want) {
			t.Fatalf("p=%d: %d classes, want %d", p, len(classes), len(want))
		}
		total := 0
		for i, c := range classes {
			if c.Orientation != want[i] {
				t.Errorf("p=%d class %d: %q, want %q", p, i, c.Orientation, want[i])
			}
			if got := len(Class(c.Orientation)); got != c.Members {
				t.Errorf("p=%d class %q: %d members, want %d", p, c.Orientation, c.Members, got)
			}
			total += c.Members
		}
		if total != 1<<(p-2) {
			t.Errorf("p=%d: members sum to %d, want %d valid strings", p, total, 1<<(p-2))
		}
		if m.DistinctKeys != int64(len(want)) {
			t.Errorf("p=%d: %d reducers, want one per class (%d)", p, m.DistinctKeys, len(want))
		}
	}
}

// TestClassCountsMRPairsBound: each span's mapper ships one partial count
// per class it meets, so for every p the communication is at most
// classes × spans — and the classes are still exactly the canonical ones.
func TestClassCountsMRPairsBound(t *testing.T) {
	cfg := mapreduce.Config{Parallelism: 4}
	for p := 3; p <= 16; p++ {
		classes, m, err := ClassCountsMR(t.Context(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := CanonicalOrientations(p)
		if len(classes) != len(want) {
			t.Fatalf("p=%d: %d classes, want %d", p, len(classes), len(want))
		}
		for i, c := range classes {
			if c.Orientation != want[i] {
				t.Errorf("p=%d class %d: %q, want %q", p, i, c.Orientation, want[i])
			}
		}
		if bound := int64(len(want) * len(spans(p, cfg.Parallelism))); m.KeyValuePairs > bound {
			t.Errorf("p=%d: shipped %d pairs, want at most classes × spans = %d", p, m.KeyValuePairs, bound)
		}
	}
}

// TestClassCountsMRRejectsP: p outside [3, 62] is an error — p = 63 would
// overflow the bits space into no span at all and report zero classes.
func TestClassCountsMRRejectsP(t *testing.T) {
	for _, p := range []int{-1, 0, 2, 63, 64} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			if classes, _, err := ClassCountsMR(t.Context(), p, mapreduce.Config{}); err == nil {
				t.Errorf("%d classes and no error", len(classes))
			}
		})
	}
}
