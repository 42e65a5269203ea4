// Command sgmrlint is the project's invariant checker: a static-analysis
// suite that mechanizes rules the engine's correctness rests on
// (deterministic encodings, ctx threading, failpoint coverage of every
// fallible operation, no heap escapes on annotated hot paths). See
// internal/lint for the analyzers and docs/ARCHITECTURE.md for the
// rationale behind each rule.
//
// It runs two ways:
//
//	sgmrlint [-json] [packages]   # analyzers, e.g. sgmrlint ./...
//	sgmrlint -escapes [packages]  # escape gate: -gcflags=-m over //lint:hotpath
//
// Both exit 1 when there are unsuppressed findings; the default rendering
// is file:line:col: message (analyzer), and -json switches to one array of
// {file,line,col,analyzer,message,suppressed} objects on stdout.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"subgraphmr/internal/lint"
	"subgraphmr/internal/lint/driver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 {
		switch args[0] {
		case "help", "-h", "-help", "--help":
			usage(stdout)
			return 0
		}
	}
	// Flags may precede the package patterns in any order.
	var jsonOut, escapes bool
	patterns := make([]string, 0, len(args))
	for _, arg := range args {
		switch arg {
		case "-json", "--json":
			jsonOut = true
		case "-escapes", "--escapes":
			escapes = true
		default:
			if strings.HasPrefix(arg, "-") {
				fmt.Fprintf(stderr, "sgmrlint: unknown flag %s (see sgmrlint help)\n", arg)
				return 2
			}
			patterns = append(patterns, arg)
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "sgmrlint:", err)
		return 2
	}
	var findings []driver.Finding
	if escapes {
		findings, err = driver.EscapeGate(cwd, patterns...)
	} else {
		findings, err = driver.Standalone(cwd, patterns...)
	}
	if err != nil {
		fmt.Fprintln(stderr, "sgmrlint:", err)
		return 2
	}
	return report(findings, jsonOut, stdout, stderr)
}

// report renders the findings and picks the exit code. Suppressed findings
// appear only in -json output (marked) and never affect the exit code.
func report(findings []driver.Finding, jsonOut bool, stdout, stderr io.Writer) int {
	failed := false
	for _, f := range findings {
		if !f.Suppressed {
			failed = true
		}
	}
	if jsonOut {
		if findings == nil {
			findings = []driver.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "sgmrlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			fmt.Fprintln(stderr, f)
		}
	}
	if failed {
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "sgmrlint checks subgraphmr's engine invariants.")
	fmt.Fprintln(w, "\nUsage:\n\n\tsgmrlint [-json] [packages]\te.g. sgmrlint ./...")
	fmt.Fprintln(w, "\tsgmrlint -escapes [packages]\tcompile with -gcflags=-m and fail on heap escapes inside //lint:hotpath functions")
	fmt.Fprintln(w, "\n-json prints findings (suppressed ones included, marked) as a JSON array on stdout.")
	fmt.Fprintln(w, "\nAnalyzers:")
	for _, a := range lint.All() {
		fmt.Fprintf(w, "\n%s:\n\t%s\n", a.Name, a.Doc)
	}
	fmt.Fprintln(w, "\nSuppress a finding with a reason on the flagged line (or the line above):")
	fmt.Fprintln(w, "\n\t//lint:allow <analyzer> <why this is sound>")
}
