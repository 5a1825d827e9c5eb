// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: just enough Analyzer/Pass
// surface for this repository's custom vet passes, plus a unitchecker
// implementing the `go vet -vettool` protocol. The build environment is
// offline (no module proxy, empty module cache), so the real x/tools
// framework is not available; the types here mirror its shape so the
// passes could migrate to it mechanically.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and CLI listings.
	Name string
	// Doc states the enforced contract (first line = summary).
	Doc string
	// Run executes the pass; it reports findings through the Pass and
	// returns an error only for operational failures.
	Run func(*Pass) error
}

// Pass is the per-package unit of work handed to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each finding.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one position. ID is the finding's stable
// machine-readable code (`pardet001` style): it identifies the *kind* of
// violation independently of message wording, so CI tooling can track finding counts across commits even as messages are reworded.
type Diagnostic struct {
	Pos     token.Pos
	ID      string
	Message string
}

// Reportf reports a formatted finding under the given stable ID. Every
// report site owns exactly one ID; IDs are never renumbered or reused,
// only retired.
func (p *Pass) Reportf(id string, pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, ID: id, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos falls in a _test.go file; the passes
// exempt tests, which legitimately construct broken states.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// NewInfo returns a types.Info with every map allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// NamedFrom unwraps pointers and aliases and reports whether t is the
// named type pkgPath.name.
func NamedFrom(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// FuncObject resolves a call's callee to its types.Object (nil for
// indirect calls through non-identifiers).
func FuncObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}
