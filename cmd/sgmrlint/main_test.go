package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subgraphmr/internal/lint/driver"
)

func TestUsageListsAllAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"help"}, &stdout, &stderr); code != 0 {
		t.Fatalf("help exited %d", code)
	}
	for _, name := range []string{"detenc", "ctxhygiene", "failcover", "hotalloc", "lint:allow", "-json", "-escapes"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("usage output missing %q", name)
		}
	}
}

// TestVettoolHandshakeRejected: sgmrlint is not a go vet -vettool. The
// probes cmd/go sends a vettool (-V=full, then -flags) must fail with a
// usage error, so a stale "go vet -vettool=sgmrlint" fails loudly
// instead of passing without analyzing anything.
func TestVettoolHandshakeRejected(t *testing.T) {
	for _, arg := range []string{"-V=full", "-flags"} {
		t.Run(arg, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{arg}, &stdout, &stderr); code != 2 {
				t.Fatalf("%s exited %d, want 2 (stdout %q)", arg, code, stdout.String())
			}
			if !strings.Contains(stderr.String(), "unknown flag "+arg) {
				t.Errorf("%s: stderr %q does not name the flag", arg, stderr.String())
			}
		})
	}
}

// TestJSONOutput pins the machine-readable mode: findings come out as one
// JSON array of {file,line,col,analyzer,message,suppressed} objects on
// stdout, suppressed findings are included and marked, and only
// unsuppressed ones drive the exit code.
func TestJSONOutput(t *testing.T) {
	mod := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module jsonfixture\n\ngo 1.24\n")
	write("a.go", `package jsonfixture

import "context"

func Detached() context.Context {
	return context.Background()
}

func Excused() context.Context {
	//lint:allow ctxhygiene fixture: documented root context
	return context.Background()
}
`)
	t.Chdir(mod)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("-json run exited %d (stderr: %s), want 1", code, stderr.String())
	}
	var findings []driver.Finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not a JSON findings array: %v\n%s", err, stdout.String())
	}
	if len(findings) != 2 {
		t.Fatalf("want the flagged and the suppressed finding, got %+v", findings)
	}
	flagged, excused := findings[0], findings[1]
	if flagged.Suppressed || !excused.Suppressed {
		t.Errorf("suppression marks wrong: %+v", findings)
	}
	for _, f := range findings {
		if f.Analyzer != "ctxhygiene" || !strings.HasSuffix(f.File, "a.go") || f.Line == 0 || f.Col == 0 || !strings.Contains(f.Message, "Background()") {
			t.Errorf("finding fields incomplete: %+v", f)
		}
	}

	// A clean tree in -json mode still prints a (empty) JSON array.
	write("a.go", "package jsonfixture\n")
	stdout.Reset()
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean -json run exited %d: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}
