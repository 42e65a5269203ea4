package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden plan documents under testdata/")

// TestGoldenJSONPlans pins the `-json -explain` document byte for byte for
// three samples, static and adaptive, on one seeded skewed graph (the same
// corpus as the root package's TestGoldenExplain; recorded before the
// strategy table replaced the per-strategy switches). The plans pass
// -k 1024, the fixed budget the documents were recorded at: they pin the
// paper's arithmetic at that k, on every machine.
func TestGoldenJSONPlans(t *testing.T) {
	for _, sample := range []string{"triangle", "square", "lollipop"} {
		for _, mode := range []struct {
			name string
			args []string
		}{
			{"static", nil},
			{"adaptive", []string{"-adaptive"}},
		} {
			args := append([]string{"-sample", sample, "-gen", "powerlaw", "-n", "300", "-seed", "1",
				"-strategy", "auto", "-k", "1024", "-json", "-explain"}, mode.args...)
			got := runSGMR(t, args...)
			path := filepath.Join("testdata", "plan_"+sample+"_"+mode.name+".json")
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
				t.Errorf("%s/%s: -json -explain drifted from %s\n--- got\n%s--- want\n%s", sample, mode.name, path, got, want)
			}
		}
	}
}
