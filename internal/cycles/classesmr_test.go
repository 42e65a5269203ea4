package cycles

import (
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

// TestClassCountsMRCombinerCutsPairs checks the counting combiner ships at
// most classes × shards pairs instead of one pair per valid string.
func TestClassCountsMRCombinerCutsPairs(t *testing.T) {
	p := 12
	cfg := mapreduce.Config{Parallelism: 4}
	classes, m, err := ClassCountsMR(t.Context(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	valid := int64(1 << (p - 2)) // 1024 strings
	shards := int64(4 * cfg.Parallelism)
	bound := int64(len(classes)) * shards
	if m.KeyValuePairs > bound {
		t.Errorf("shipped %d pairs, combiner bound is %d", m.KeyValuePairs, bound)
	}
	if m.KeyValuePairs >= valid {
		t.Errorf("shipped %d pairs, want fewer than the %d valid strings", m.KeyValuePairs, valid)
	}
}
