// Package statkeys flags flow.Context.AddStat calls whose key is not a
// constant declared in internal/flow's stat-key registry
// (internal/flow/statkeys.go). Ad-hoc string keys fragment the metric
// namespace: the -stage-report table and the resilience reports join
// stage metrics across flows by key, so a typo silently splits a counter
// into a column of its own, or drops it from the reports that read it
// by name, instead of failing anywhere.
package statkeys

import (
	"go/ast"
	"go/types"

	"repro/tools/analyzers/analysis"
)

const flowPath = "repro/internal/flow"

// Analyzer is the pass instance.
var Analyzer = &analysis.Analyzer{
	Name: "statkeys",
	Doc: "flag AddStat keys not declared in internal/flow's stat-key registry\n\n" +
		"flow.Context.AddStat keys must be flow package constants (Stat*);\n" +
		"string literals and foreign constants fragment the metric namespace.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 1 {
				return true
			}
			obj := analysis.FuncObject(pass.TypesInfo, call)
			if obj == nil || obj.Name() != "AddStat" || obj.Pkg() == nil || obj.Pkg().Path() != flowPath {
				return true
			}
			if pass.InTestFile(call.Pos()) || registryConst(pass.TypesInfo, call.Args[0]) {
				return true
			}
			pass.Reportf("statkeys001", call.Args[0].Pos(),
				"AddStat key must be a flow.Stat* constant from internal/flow/statkeys.go, not an ad-hoc string")
			return true
		})
	}
	return nil
}

// registryConst reports whether the expression is (a reference to) a
// constant declared in the flow package.
func registryConst(info *types.Info, expr ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := info.Uses[id].(*types.Const)
	return ok && c.Pkg() != nil && c.Pkg().Path() == flowPath
}
