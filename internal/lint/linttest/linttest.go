// Package linttest is a minimal analysistest: it loads a golden fixture
// package from testdata/src/<fixture>, runs one analyzer over it, and
// matches the diagnostics against the fixture's expectation comments.
//
// Expectations are trailing comments in the fixture source:
//
//	p.Strategy = "x" // want "write to Strategy"
//
// Each quoted string is a regexp that must match a diagnostic message
// reported on that line; multiple strings expect multiple diagnostics.
// The variant `// want-1 "re"` expects the diagnostic one line above —
// needed to pin diagnostics reported at a //lint: directive itself, since
// a line comment cannot share its line with another comment.
//
// Fixtures type-check for real: imports resolve through the gc export
// data of the enclosing build (driver.ListExports), so analyzers see full
// type information exactly as they do on the production tree.
package linttest

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"subgraphmr/internal/lint"
	"subgraphmr/internal/lint/driver"
)

// Dir returns the fixture directory for an analyzer name.
func Dir(fixture string) string {
	return filepath.Join("testdata", "src", fixture)
}

// Load parses and type-checks the fixture package, with the fixture name
// as its import path.
func Load(t *testing.T, fixture string) *lint.Unit {
	t.Helper()
	dir := Dir(fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(filenames)
	if len(filenames) == 0 {
		t.Fatalf("fixture %s has no Go files", fixture)
	}

	// Resolve the fixture's imports against the build's export data so
	// the type-checker sees real stdlib packages.
	importSet := make(map[string]bool)
	impFset := token.NewFileSet()
	for _, name := range filenames {
		f, err := parser.ParseFile(impFset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatalf("import path %s: %v", spec.Path.Value, err)
			}
			importSet[path] = true
		}
	}
	paths := make([]string, 0, len(importSet))
	for p := range importSet {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	exports := map[string]string{}
	if len(paths) > 0 {
		exports, err = driver.ListExports(".", paths...)
		if err != nil {
			t.Fatalf("resolving fixture imports: %v", err)
		}
	}

	fset := token.NewFileSet()
	unit, err := driver.TypeCheck(fset, fixture, filenames, driver.NewImporter(fset, exports))
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", fixture, err)
	}
	return unit
}

// Diagnostics loads the fixture and returns the analyzer's surviving
// diagnostics (after //lint:allow filtering).
func Diagnostics(t *testing.T, a *lint.Analyzer, fixture string) (*lint.Unit, []lint.Diagnostic) {
	t.Helper()
	unit := Load(t, fixture)
	diags, err := lint.Run(unit, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return unit, diags
}

// Run executes the analyzer over its fixture and asserts the diagnostics
// match the fixture's want comments exactly.
func Run(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	unit, diags := Diagnostics(t, a, fixture)
	wants := collectWants(t, unit)
	for _, d := range diags {
		pos := unit.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		if !wants.match(key, d.Message) {
			t.Errorf("unexpected diagnostic at %s: %s (%s)", pos, d.Message, d.Analyzer)
		}
	}
	wants.reportUnmatched(t)
}

type want struct {
	key     string // file:line the diagnostic must land on
	re      *regexp.Regexp
	matched bool
}

type wantSet struct{ all []*want }

func (ws *wantSet) match(key, message string) bool {
	for _, w := range ws.all {
		if !w.matched && w.key == key && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	for _, w := range ws.all {
		if !w.matched {
			t.Errorf("no diagnostic at %s matching %q", w.key, w.re)
		}
	}
}

// wantRE splits a want comment into its line-offset and payload:
// `// want "a" "b"` or `// want-1 "a"`.
var wantRE = regexp.MustCompile(`^//\s*want(-1)?\s+(.*)$`)

func collectWants(t *testing.T, unit *lint.Unit) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := unit.Fset.Position(c.Slash)
				line := pos.Line
				if m[1] == "-1" {
					line--
				}
				key := fmt.Sprintf("%s:%d", pos.Filename, line)
				rest := m[2]
				for rest != "" {
					rest = strings.TrimLeft(rest, " \t")
					if rest == "" {
						break
					}
					lit, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want comment %q: %v", pos, c.Text, err)
					}
					pattern, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s: unquoting %q: %v", pos, lit, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					ws.all = append(ws.all, &want{key: key, re: re})
					rest = rest[len(lit):]
				}
			}
		}
	}
	return ws
}
