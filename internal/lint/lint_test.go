package lint_test

import (
	"os"
	"strings"
	"testing"

	"subgraphmr/internal/lint"
	"subgraphmr/internal/lint/linttest"
)

// One golden-fixture suite per analyzer: positive, negative, and
// suppressed cases live in testdata/src/<analyzer>/.

func TestDetEnc(t *testing.T)     { linttest.Run(t, lint.DetEnc, "detenc") }
func TestCtxHygiene(t *testing.T) { linttest.Run(t, lint.CtxHygiene, "ctxhygiene") }
func TestFailCover(t *testing.T)  { linttest.Run(t, lint.FailCover, "failcover") }
func TestHotAlloc(t *testing.T)   { linttest.Run(t, lint.HotAlloc, "hotalloc") }

// TestStaleAllow pins directive hygiene: a well-formed //lint:allow that
// suppresses nothing is itself a diagnostic (and a live one is not).
func TestStaleAllow(t *testing.T) { linttest.Run(t, lint.CtxHygiene, "stale") }

// TestEveryAnalyzerHasFixtures pins the registry to the fixture tree: an
// analyzer added to lint.All() without golden files fails here, not in
// review.
func TestEveryAnalyzerHasFixtures(t *testing.T) {
	for _, a := range lint.All() {
		dir := linttest.Dir(a.Name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("analyzer %s has no fixture directory %s: %v", a.Name, dir, err)
			continue
		}
		goFiles := 0
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				goFiles++
			}
		}
		if goFiles == 0 {
			t.Errorf("analyzer %s fixture directory %s has no Go files", a.Name, dir)
		}
	}
}

// TestEveryAnalyzerFires proves each analyzer produces at least one
// diagnostic of its own on its fixture — a suite that silently stopped
// firing is indistinguishable from a clean tree otherwise.
func TestEveryAnalyzerFires(t *testing.T) {
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			_, diags := linttest.Diagnostics(t, a, a.Name)
			own := 0
			for _, d := range diags {
				if d.Analyzer == a.Name {
					own++
				}
			}
			if own == 0 {
				t.Errorf("analyzer %s reports nothing on its own fixture", a.Name)
			}
		})
	}
}

// TestAnalyzerMetadata keeps names directive-friendly and docs non-empty;
// both feed user-facing output (usage text, //lint:allow validation).
func TestAnalyzerMetadata(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range lint.All() {
		if a.Name == "" || strings.ToLower(a.Name) != a.Name || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be a lowercase single token", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no run function", a.Name)
		}
	}
}
