package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// isTestFile reports whether the file's basename ends in _test.go.
func isTestFile(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}

// calleeFunc resolves the *types.Func a call invokes, or nil for calls
// through function values, conversions, and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
