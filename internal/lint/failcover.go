package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// FailCover proves the chaos matrix's coverage claim statically.
//
// PR 9's failure contract rests on two hand-audited properties: every
// fallible operation in the engine (spill file I/O, sockets, process
// spawning) is reachable only through a function that evaluates a
// registered failpoint site — so the chaos difftests can actually inject
// its failure — and the site catalog in internal/failpoint matches the
// sites the code evaluates, in both directions. FailCover mechanizes both
// with the dataflow layer: inside the engine packages and the packages on
// Run's path above them (see failcoverDirs) it builds the package call
// graph, treats every function that calls failpoint.Eval/Corrupt as a
// guard, and flags any fallible operation in a function still reachable
// from an entry point without passing a guard. Outside the engine no
// package evaluates a site, so there the rule reads: query-path code does
// no fallible I/O of its own — an error it could return would reach the
// caller without the stage an engine error carries.
// Cross-package facts close the catalog loop: the failpoint package
// exports its catalog, every covered package exports the site names it
// evaluates, and a main package that links the whole engine checks the
// two against each other — an evaluated site missing from the catalog and
// a catalog entry no code evaluates are both diagnostics.
var FailCover = &Analyzer{
	Name: "failcover",
	Doc: "prove failpoint coverage: fallible I/O in the engine packages must sit " +
		"behind a failpoint-evaluating function, and the site catalog must match " +
		"the evaluated sites exactly (no unknown references, no dead entries)",
	Run: runFailCover,
}

// engineDirs are the package-path segments of the engine's I/O surface,
// the packages that evaluate failpoint sites. The dead-site check waits
// for a refs fact from each of them.
var engineDirs = []string{
	"internal/mapreduce",
	"internal/distrib",
	"internal/serve",
}

// failcoverDirs are the package-path segments whose fallible operations
// the chaos matrix must be able to fail: the engine, and the algorithm
// packages Run reaches on its way there. internal/graph is left out: its
// one fallible operation (WriteEdgeList's Flush) is on no query path. The
// module's root package, the query API itself, is in scope as well (see
// inFailcoverScope).
var failcoverDirs = append([]string{
	"internal/core",
	"internal/tworound",
	"internal/triangle",
	"internal/cq",
	"internal/directed",
	"internal/multijoin",
}, engineDirs...)

// inFailcoverScope reports whether a package's fallible operations must
// sit behind a failpoint. A path without a slash is a module's root
// package: the driver skips the standard library, and the module has no
// third-party dependencies, so in this tree that is the query API (and
// in fixtures, the fixture package).
func inFailcoverScope(path string) bool {
	if !strings.Contains(path, "/") {
		return true
	}
	for _, dir := range failcoverDirs {
		if strings.Contains(path, dir) {
			return true
		}
	}
	return false
}

// fallibleOps are the operations the failure model cares about, by
// types.Func.FullName: file I/O that can hit ENOSPC or a vanished file,
// socket operations that can time out or reset, and child-process
// control. Additions here widen the contract for every covered package.
var fallibleOps = map[string]bool{
	"os.Create":     true,
	"os.CreateTemp": true,
	"os.Open":       true,
	"os.OpenFile":   true,
	"os.Rename":     true,
	"os.Remove":     true,
	"os.RemoveAll":  true,
	"os.WriteFile":  true,
	"os.ReadFile":   true,
	"os.MkdirAll":   true,
	"os.MkdirTemp":  true,

	"net.Dial":                  true,
	"net.DialTimeout":           true,
	"net.Listen":                true,
	"(*net.Dialer).DialContext": true,
	"(net.Conn).Read":           true,
	"(net.Conn).Write":          true,

	"io.ReadFull": true,

	"(*bufio.Writer).Flush": true,
	"(*bufio.Writer).Write": true,
	"(*os.File).Write":      true,
	"(*os.File).Read":       true,

	"(*os/exec.Cmd).Start":          true,
	"(*os/exec.Cmd).Run":            true,
	"(*os/exec.Cmd).Wait":           true,
	"(*os/exec.Cmd).Output":         true,
	"(*os/exec.Cmd).CombinedOutput": true,
}

// isFailpointPkg matches the failpoint registry package (and its
// counterpart in fixture modules).
func isFailpointPkg(path string) bool {
	return path == "internal/failpoint" || strings.HasSuffix(path, "/internal/failpoint")
}

// failpointFunc returns "Eval" or "Corrupt" when the call enters the
// failpoint registry, else "".
func failpointFunc(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !isFailpointPkg(fn.Pkg().Path()) {
		return ""
	}
	if name := fn.Name(); name == "Eval" || name == "Corrupt" {
		return name
	}
	return ""
}

func runFailCover(pass *Pass) error {
	if isFailpointPkg(pass.Path) {
		return exportFailpointCatalog(pass)
	}

	if inFailcoverScope(pass.Path) {
		checkFailpointCoverage(pass)
	}
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		checkDeadSites(pass)
	}
	return nil
}

// exportFailpointCatalog publishes the knownSites catalog as a fact. The
// catalog is read off the map literal's keys — the same source of truth
// Enable validates against — so the fact cannot drift from the runtime
// check.
func exportFailpointCatalog(pass *Pass) error {
	var catalog []string
	for _, f := range pass.Files {
		if isTestFile(pass.Filename(f.Pos())) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range spec.Names {
				if name.Name != "knownSites" || i >= len(spec.Values) {
					continue
				}
				lit, ok := spec.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if site, ok := constStringValue(pass.TypesInfo, kv.Key); ok {
						catalog = append(catalog, site)
					}
				}
			}
			return true
		})
	}
	if catalog == nil {
		return nil
	}
	sort.Strings(catalog)
	return pass.ExportFact("catalog", catalog)
}

// constStringValue resolves an expression to its constant string value.
func constStringValue(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkFailpointCoverage runs the reachability analysis over one covered
// package: guards are functions evaluating a failpoint site, and a
// fallible operation in a function reachable from an entry point without
// passing a guard is a diagnostic. It also validates evaluated site names
// against the imported catalog and exports them as this package's refs
// fact.
func checkFailpointCoverage(pass *Pass) {
	g := buildCallGraph(pass)

	// First sweep: find the guards and the evaluated site names.
	guards := make(map[*cgNode]bool)
	refs := make(map[string]bool)
	catalog := importedCatalog(pass)
	for _, n := range g.nodes {
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			fname := failpointFunc(pass.TypesInfo, call)
			if fname == "" {
				return true
			}
			guards[n] = true
			if len(call.Args) == 0 {
				return true
			}
			site, ok := constStringValue(pass.TypesInfo, call.Args[0])
			if !ok {
				pass.Reportf(call.Args[0].Pos(),
					"failpoint.%s site must be a constant from the internal/failpoint catalog, not a computed string — the chaos matrix and the dead-site check can only see named sites",
					fname)
				return true
			}
			refs[site] = true
			if catalog != nil && !catalog[site] {
				pass.Reportf(call.Args[0].Pos(),
					"failpoint.%s references site %q which is not in the internal/failpoint catalog; add it to knownSites (with a doc comment) or use an existing site",
					fname, site)
			}
			return true
		})
	}

	// The refs fact is exported even when empty: the dead-site check
	// requires a refs fact from every covered package before it will
	// declare a catalog entry dead, so an empty fact means "analyzed,
	// nothing evaluated" while a missing one means "not analyzed yet".
	sites := make([]string, 0, len(refs))
	for s := range refs {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	if err := pass.ExportFact("refs", sites); err != nil {
		return
	}

	// Second sweep: flag fallible operations in functions reachable from
	// an entry point without passing a guard. A guard covers its own body
	// and everything only it reaches.
	unguarded := g.reachableSkipping(g.roots(), func(n *cgNode) bool { return guards[n] })
	for _, n := range g.nodes {
		if !unguarded[n] {
			continue
		}
		funcName := n.decl.Name.Name
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !fallibleOps[fn.FullName()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"fallible operation %s in %s is reachable without passing a failpoint site; every failure the engine can hit must be injectable — evaluate a registered failpoint on this path (or guard a caller) so the chaos matrix covers it",
				fn.FullName(), funcName)
			return true
		})
	}
}

// importedCatalog returns the failpoint catalog visible to this package's
// facts, or nil when none is (single-package fixture runs).
func importedCatalog(pass *Pass) map[string]bool {
	for _, pkg := range pass.FactPackages("catalog") {
		if !isFailpointPkg(pkg) {
			continue
		}
		var sites []string
		if pass.ImportFact(pkg, "catalog", &sites) {
			out := make(map[string]bool, len(sites))
			for _, s := range sites {
				out[s] = true
			}
			return out
		}
	}
	return nil
}

// checkDeadSites closes the catalog loop at a link point. A main package
// sees the transitive facts of everything it links; when those include
// the catalog and a refs fact from every engine package directory, a
// catalog entry absent from the union of refs is dead — its I/O path was
// refactored away without updating the catalog, and the chaos matrix is
// burning cycles on a site that can never fire. The check stays silent in
// binaries that link only part of the engine (their facts lack some
// engine directory), so it fires exactly where the full engine comes
// together — cmd/sgmr in this tree.
func checkDeadSites(pass *Pass) {
	catalog := importedCatalog(pass)
	if catalog == nil {
		return
	}
	refPkgs := pass.FactPackages("refs")
	for _, dir := range engineDirs {
		seen := false
		for _, pkg := range refPkgs {
			if strings.Contains(pkg, dir) {
				seen = true
				break
			}
		}
		if !seen {
			return
		}
	}
	evaluated := make(map[string]bool)
	for _, pkg := range refPkgs {
		var sites []string
		if pass.ImportFact(pkg, "refs", &sites) {
			for _, s := range sites {
				evaluated[s] = true
			}
		}
	}
	var dead []string
	for site := range catalog {
		if !evaluated[site] {
			dead = append(dead, site)
		}
	}
	sort.Strings(dead)
	for _, site := range dead {
		pass.Reportf(pass.Files[0].Name.Pos(),
			"failpoint site %q is in the internal/failpoint catalog but no covered package evaluates it; delete the catalog entry or re-guard the I/O it was meant to cover",
			site)
	}
}
