package lint

import (
	"go/ast"
	"go/types"
)

// The package-level call graph failcover's reachability analysis runs
// on. One node per top-level function declaration; function literals are
// merged into the declaration that lexically encloses them, because for
// the property checked here — "is this I/O reachable without passing a
// failpoint?" — a closure executes with its parent's obligations (the
// engine's worker bodies are all closures inside runJob-shaped
// functions).

// A cgNode is one function declaration in the graph.
type cgNode struct {
	decl *ast.FuncDecl
	fn   *types.Func
	// callees are the same-package functions this declaration (or any
	// literal inside it) calls or references. References count as edges:
	// a function passed as a callback runs with at most the guarantees of
	// the site that handed it over.
	callees []*cgNode
	callers []*cgNode
}

// exported reports whether the declaration is package API (callable from
// outside, so reachability analyses must treat it as an entry point).
func (n *cgNode) exported() bool {
	return n.decl.Name.IsExported()
}

// A callGraph indexes the unit's non-test function declarations.
type callGraph struct {
	nodes []*cgNode
	byObj map[*types.Func]*cgNode
}

// buildCallGraph constructs the same-package call graph over the unit's
// non-test files.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{byObj: make(map[*types.Func]*cgNode)}
	for _, f := range pass.Files {
		if isTestFile(pass.Filename(f.Pos())) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &cgNode{decl: fd}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				n.fn = obj
				g.byObj[obj] = n
			}
			g.nodes = append(g.nodes, n)
		}
	}
	for _, n := range g.nodes {
		seen := make(map[*cgNode]bool)
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			// A method of a generic type is used through its instantiation;
			// the declaration is its origin.
			callee, ok := g.byObj[fn.Origin()]
			if !ok || callee == n || seen[callee] {
				return true
			}
			seen[callee] = true
			n.callees = append(n.callees, callee)
			callee.callers = append(callee.callers, n)
			return true
		})
	}
	return g
}

// roots returns the graph's entry points: exported declarations plus
// declarations with no in-package callers (invoked by other packages via
// interface dispatch, by the runtime, or dead — either way, nothing in
// this package stands between them and the outside).
func (g *callGraph) roots() []*cgNode {
	var out []*cgNode
	for _, n := range g.nodes {
		if n.exported() || len(n.callers) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// reachableSkipping marks every node reachable from the given roots
// without entering a node for which skip returns true. A skipped node
// blocks propagation: its callees are only reached through other paths.
// failcover skips the guards, so everything downstream of a failpoint
// evaluation counts as covered.
func (g *callGraph) reachableSkipping(roots []*cgNode, skip func(*cgNode) bool) map[*cgNode]bool {
	marked := make(map[*cgNode]bool)
	var visit func(n *cgNode)
	visit = func(n *cgNode) {
		if marked[n] || skip(n) {
			return
		}
		marked[n] = true
		for _, c := range n.callees {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return marked
}
