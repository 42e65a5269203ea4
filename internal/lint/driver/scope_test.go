package driver_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subgraphmr/internal/lint"
	"subgraphmr/internal/lint/driver"
)

// TestFailCoverScope pins which packages failcover holds to the failure
// contract. A throwaway module puts the same unguarded os.ReadFile in a
// package at each path of interest: the module root (the query API), the
// algorithm packages on Run's path, and the engine must each be flagged;
// internal/graph (whose one fallible call is on no query path) and a
// command must not be.
func TestFailCoverScope(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	load := func(pkg string) string {
		return "// Package " + pkg + " reads a file on its exported path.\npackage " + pkg + `

import "os"

// Load returns the file's bytes with os.ReadFile's raw error.
func Load(path string) ([]byte, error) {
	return os.ReadFile(path)
}
`
	}
	write("go.mod", "module scopemod\n\ngo 1.24\n")
	write("root.go", load("scopemod"))

	inScope := []string{
		"internal/core",
		"internal/tworound",
		"internal/triangle",
		"internal/cq",
		"internal/directed",
		"internal/multijoin",
		"internal/mapreduce",
		"internal/distrib",
		"internal/serve",
	}
	outOfScope := []string{"internal/graph", "cmd/tool"}
	for _, p := range append(append([]string{}, inScope...), outOfScope...) {
		name := filepath.Base(p)
		if p == "cmd/tool" {
			name = "main"
		}
		src := load(name)
		if name == "main" {
			src += "\nfunc main() { _, _ = Load(\"/dev/null\") }\n"
		}
		write(filepath.Join(p, name+".go"), src)
	}

	findings, err := driver.StandaloneAnalyzers(dir, []*lint.Analyzer{lint.FailCover}, "./...")
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	flagged := func(rel string) bool {
		for _, f := range findings {
			if f.Analyzer == "failcover" && !f.Suppressed && filepath.Dir(f.File) == filepath.Join(dir, rel) &&
				strings.Contains(f.Message, "os.ReadFile") {
				return true
			}
		}
		return false
	}

	t.Run("root", func(t *testing.T) {
		if !flagged(".") {
			t.Errorf("the module root's unguarded os.ReadFile was not flagged:\n%s", renderAll(findings))
		}
	})
	for _, p := range inScope {
		t.Run(p, func(t *testing.T) {
			if !flagged(p) {
				t.Errorf("%s: unguarded os.ReadFile was not flagged:\n%s", p, renderAll(findings))
			}
		})
	}
	for _, p := range outOfScope {
		t.Run(p, func(t *testing.T) {
			if flagged(p) {
				t.Errorf("%s is outside the failure contract, yet its os.ReadFile was flagged:\n%s", p, renderAll(findings))
			}
		})
	}
}
