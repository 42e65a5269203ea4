package driver_test

import (
	"path/filepath"
	"testing"

	"subgraphmr/internal/lint/driver"
)

// TestStandaloneTreeClean pins the acceptance criterion: the full analyzer
// suite reports nothing on the production tree. Every intentional
// exception is documented with a //lint:allow, so a new finding here is
// either a real invariant violation or a missing audit note — both are
// failures.
func TestStandaloneTreeClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := driver.Standalone(root, "./...")
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			continue
		}
		t.Errorf("unexpected finding: %s", d)
	}
	if suppressed == 0 {
		t.Error("no suppressed findings at all — the //lint:allow audit notes in the tree should surface here; did suppression marking break?")
	}
}
