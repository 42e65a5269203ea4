package lint

import (
	"encoding/json"
	"fmt"
	"sort"
)

// A FactSet carries analyzer facts across package boundaries. An
// analyzer running on one package exports a named, JSON-serializable
// payload (failcover's site catalog and evaluated-site list), and the same
// analyzer running on dependent packages imports it by (package path,
// fact name). The driver shares one FactSet across the whole
// dependency-ordered package list, so a package sees the facts of every
// package it (transitively) imports.
type FactSet struct {
	// pkgs maps package path -> analyzer name -> fact name -> payload.
	pkgs map[string]map[string]map[string]json.RawMessage
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{pkgs: make(map[string]map[string]map[string]json.RawMessage)}
}

// export records one fact, overwriting any previous value under the same
// (package, analyzer, name) key.
func (fs *FactSet) export(pkgPath, analyzer, name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding fact %s/%s for %s: %w", analyzer, name, pkgPath, err)
	}
	byAnalyzer := fs.pkgs[pkgPath]
	if byAnalyzer == nil {
		byAnalyzer = make(map[string]map[string]json.RawMessage)
		fs.pkgs[pkgPath] = byAnalyzer
	}
	byName := byAnalyzer[analyzer]
	if byName == nil {
		byName = make(map[string]json.RawMessage)
		byAnalyzer[analyzer] = byName
	}
	byName[name] = data
	return nil
}

// lookup decodes the fact under (pkgPath, analyzer, name) into into,
// reporting whether it was present.
func (fs *FactSet) lookup(pkgPath, analyzer, name string, into any) bool {
	data, ok := fs.pkgs[pkgPath][analyzer][name]
	if !ok {
		return false
	}
	return json.Unmarshal(data, into) == nil
}

// packages returns the sorted package paths that exported a fact under
// (analyzer, name) — how failcover finds every refs fact in scope without
// knowing the package list up front.
func (fs *FactSet) packages(analyzer, name string) []string {
	var out []string
	for pkg, byAnalyzer := range fs.pkgs {
		if _, ok := byAnalyzer[analyzer][name]; ok {
			out = append(out, pkg)
		}
	}
	sort.Strings(out)
	return out
}
