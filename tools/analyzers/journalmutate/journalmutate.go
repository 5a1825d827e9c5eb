// Package journalmutate flags direct assignments to netlist.Instance.Loc
// and .Tier outside internal/netlist. The change journal's instance and
// net revisions are what keep the incremental sta.Timer and the RC
// extraction cache bit-exact; a raw field write bypasses them and
// silently desynchronizes every engine holding the design. Mutations
// must go through SetLoc/SetTier.
package journalmutate

import (
	"go/ast"
	"go/types"

	"repro/tools/analyzers/analysis"
)

const netlistPath = "repro/internal/netlist"

// Analyzer is the pass instance.
var Analyzer = &analysis.Analyzer{
	Name: "journalmutate",
	Doc: "flag direct Instance.Loc/Tier writes that bypass the change journal\n\n" +
		"Outside internal/netlist (and tests), assigning to netlist.Instance.Loc\n" +
		"or .Tier skips the revision bump the incremental timer and the RC\n" +
		"cache depend on; use SetLoc/SetTier.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == netlistPath {
		return nil // the journal's own implementation
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					checkTarget(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkTarget(pass, stmt.X)
			}
			return true
		})
	}
	return nil
}

// checkTarget walks the selector spine of an assignment target (e.g.
// insts[i].Loc.X) looking for a Loc/Tier field selected on an Instance.
func checkTarget(pass *analysis.Pass, expr ast.Expr) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if field := e.Sel.Name; field == "Loc" || field == "Tier" {
				if t := pass.TypesInfo.TypeOf(e.X); t != nil &&
					analysis.NamedFrom(t, netlistPath, "Instance") &&
					isFieldSelection(pass.TypesInfo, e) &&
					!pass.InTestFile(e.Pos()) {
					pass.Reportf("journalmutate001", e.Sel.Pos(),
						"direct write to netlist.Instance.%s bypasses the change journal; use Set%s",
						field, field)
				}
			}
			expr = e.X
		default:
			return
		}
	}
}

// isFieldSelection distinguishes a struct field access from a method
// value of the same name.
func isFieldSelection(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}
