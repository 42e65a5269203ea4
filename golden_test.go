package subgraphmr

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenExplain pins the planner's full output — candidate order, cost
// ties, probe ladders, every rendered digit — for three samples, static and
// adaptive, on one seeded skewed graph. The files were recorded before the
// strategy table replaced the per-strategy switches; any byte of drift
// means the table order or a tie-break moved.
func TestGoldenExplain(t *testing.T) {
	g := PowerLaw(300, 8, 2.3, 1)
	for _, sample := range []string{"triangle", "square", "lollipop"} {
		for _, mode := range []struct {
			name string
			opts []Option
		}{
			{"static", nil},
			{"adaptive", []Option{WithAdaptive()}},
		} {
			plan, err := Plan(g, NamedSample(sample), append([]Option{WithSeed(7)}, mode.opts...)...)
			if err != nil {
				t.Fatalf("%s/%s: %v", sample, mode.name, err)
			}
			got := plan.Explain()
			path := filepath.Join("testdata", "explain_"+sample+"_"+mode.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s/%s: Explain drifted from %s\n--- got\n%s--- want\n%s", sample, mode.name, path, got, want)
			}
		}
	}
}
