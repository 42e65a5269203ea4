package driver_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subgraphmr/internal/lint"
	"subgraphmr/internal/lint/driver"
)

// writeFactsModule lays out a throwaway module shaped like the engine:
// a failpoint registry with a two-site catalog (one of them dead), a
// covered mapreduce package that evaluates one real site and one unknown
// site, empty covered distrib/serve packages, and a main that links the
// lot. It is the cross-package contract in miniature: the unknown-site
// diagnostic needs the catalog fact to flow failpoint→mapreduce, and the
// dead-site diagnostic needs catalog+refs facts to flow transitively into
// the main package.
func writeFactsModule(t *testing.T) string {
	t.Helper()
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
	write("go.mod", "module factsmod\n\ngo 1.24\n")
	write("internal/failpoint/failpoint.go", `// Package failpoint is the fixture registry.
package failpoint

const (
	// SpillCreate is evaluated by the mapreduce package below.
	SpillCreate = "mr.spill.create"
	// DeadSite is in the catalog but never evaluated anywhere.
	DeadSite = "mr.dead"
)

var knownSites = map[string]bool{
	SpillCreate: true,
	DeadSite:    true,
}

// Eval reports whether the site is armed (fixture: never).
func Eval(site string) error {
	if !knownSites[site] {
		return nil
	}
	return nil
}

// Corrupt passes the payload through (fixture).
func Corrupt(site string, b []byte) []byte { return b }
`)
	write("internal/mapreduce/mr.go", `// Package mapreduce is a covered engine package.
package mapreduce

import (
	"os"

	"factsmod/internal/failpoint"
)

// Spill is guarded: it evaluates a cataloged site before its I/O.
func Spill(path string) error {
	if err := failpoint.Eval(failpoint.SpillCreate); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return f.Close()
}

// Probe evaluates a site name that is not in the catalog.
func Probe() error {
	return failpoint.Eval("mr.unknown")
}
`)
	write("internal/distrib/d.go", "// Package distrib is a covered package with nothing fallible.\npackage distrib\n\n// N is a fixture export.\nfunc N() int { return 1 }\n")
	write("internal/serve/s.go", "// Package serve is a covered package with nothing fallible.\npackage serve\n\n// M is a fixture export.\nfunc M() int { return 2 }\n")
	write("cmd/app/main.go", `// Command app links the whole fixture engine.
package main

import (
	"factsmod/internal/distrib"
	"factsmod/internal/mapreduce"
	"factsmod/internal/serve"
)

func main() {
	if err := mapreduce.Spill(os_devnull()); err != nil {
		panic(err)
	}
	_ = distrib.N() + serve.M()
}

func os_devnull() string { return "/dev/null" }
`)
	return dir
}

// TestStandaloneFactsRoundTrip proves the facts channel end to end through
// the standalone driver: the catalog fact crosses failpoint→mapreduce
// (unknown-site diagnostic) and catalog+refs facts reach the main package
// (dead-site diagnostic).
func TestStandaloneFactsRoundTrip(t *testing.T) {
	dir := writeFactsModule(t)
	findings, err := driver.StandaloneAnalyzers(dir, []*lint.Analyzer{lint.FailCover}, "./...")
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	assertFactsFindings(t, renderAll(findings))
}

// TestStandaloneFactsDepOnly proves the facts of unmatched in-module
// dependencies still flow: analyzing only the main package must produce
// the dead-site diagnostic (the covered packages run facts-only) and must
// NOT leak the dependencies' own diagnostics.
func TestStandaloneFactsDepOnly(t *testing.T) {
	dir := writeFactsModule(t)
	findings, err := driver.StandaloneAnalyzers(dir, []*lint.Analyzer{lint.FailCover}, "./cmd/app")
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	out := renderAll(findings)
	if !strings.Contains(out, `failpoint site "mr.dead"`) {
		t.Errorf("dead-site diagnostic missing when deps are facts-only:\n%s", out)
	}
	if strings.Contains(out, "mr.unknown") {
		t.Errorf("facts-only dependency leaked its own diagnostics:\n%s", out)
	}
}

func assertFactsFindings(t *testing.T, out string) {
	t.Helper()
	if !strings.Contains(out, `references site "mr.unknown" which is not in the internal/failpoint catalog`) {
		t.Errorf("unknown-site diagnostic missing (catalog fact did not cross failpoint→mapreduce):\n%s", out)
	}
	if !strings.Contains(out, `failpoint site "mr.dead" is in the internal/failpoint catalog but no covered package evaluates it`) {
		t.Errorf("dead-site diagnostic missing (catalog/refs facts did not reach the main package):\n%s", out)
	}
	if strings.Contains(out, "mr.spill.create") {
		t.Errorf("the evaluated cataloged site must not be flagged:\n%s", out)
	}
}

func renderAll(findings []driver.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}
