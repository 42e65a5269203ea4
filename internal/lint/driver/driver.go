// Package driver runs the sgmrlint analyzers without golang.org/x/tools.
//
// Standalone loads packages via `go list -export -deps -json`,
// type-checks the matched ones from source against their dependencies'
// compiler export data, and runs the analyzer suite, passing facts from
// each package to its dependents in process. This is what `sgmrlint ./...`
// does and what the tree-clean test pins.
//
// The module has zero third-party dependencies, so every import resolves
// to stdlib or in-module packages whose gc export data the build system
// already produced. A lookup-based importer.ForCompiler over those files
// gives full type information with no network and no extra toolchain.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"sync"

	"subgraphmr/internal/lint"
)

// listedPackage is the subset of `go list -json` output the driver uses.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList shells `go list -export -deps -json` in dir and decodes the
// package stream. -export makes the build system produce (or reuse from
// the build cache) gc export data for every listed package — the type
// information source for the importer.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=Dir,ImportPath,Name,GoFiles,Export,Standard,DepOnly,Incomplete,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportCache memoizes ListExports across fixture loads so the test suite
// shells out to `go list` once per distinct dependency set, not once per
// fixture.
var (
	exportMu    sync.Mutex
	exportCache = make(map[string]string)
)

// ListExports resolves import paths to gc export-data files via
// `go list -export -deps -json`, consulting a process-wide cache first.
func ListExports(dir string, paths ...string) (map[string]string, error) {
	exportMu.Lock()
	defer exportMu.Unlock()
	var missing []string
	for _, p := range paths {
		if _, ok := exportCache[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		pkgs, err := goList(dir, missing...)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exportCache[p.ImportPath] = p.Export
			}
		}
	}
	out := make(map[string]string, len(exportCache))
	for k, v := range exportCache {
		out[k] = v
	}
	return out, nil
}

// NewImporter returns a types.Importer that resolves imports through gc
// export-data files, keyed by import path.
func NewImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := importer.ForCompiler(fset, "gc", lookup)
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compiler.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TypeCheck parses and checks one package from source.
func TypeCheck(fset *token.FileSet, importPath string, filenames []string, imp types.Importer) (*lint.Unit, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &lint.Unit{Path: importPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
