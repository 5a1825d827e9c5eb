// Package poolescape statically checks the pooled/arena memory
// lifetimes of the dense-data refactor (DESIGN.md §6.8): values of a
// type marked `//pool:scoped` — route's recycled NetRC shells, the
// per-worker scratch of the RSMT builder — are only valid until their
// recycle boundary (RecycleRC, a sync.Pool Put). A
// reference that outlives that boundary reads storage a later
// extraction is already rewriting: silent corruption that the alloc
// pins and goldens catch only when it happens to change tested output.
//
// The pass flags, anywhere in the repository, a pool-scoped value
// being:
//
//   - stored into a struct field (x.f = v, x.f[i] = v, or as a
//     composite-literal field value),
//   - stored into a package-level variable,
//   - sent on a channel,
//   - returned from a function,
//
// because each hands the reference to an owner whose lifetime the
// pool's boundary cannot see. The sanctioned lifecycle API — the
// allocator handing shells out, the recycler taking them back, the
// cache that owns publication — carries `//pool:boundary <reason>` on
// the function; one-off audited exceptions carry
// `//poolescape:ignore <reason>` on the offending line.
//
// Scoped types are discovered from the `//pool:scoped` marker on their
// declaration in the package under analysis; for cross-package
// checking (the unitchecker analyzes one package at a time, with no
// fact store) the repository's pooled types are also registered here.
package poolescape

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the pass instance.
var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc: "flag //pool:scoped values escaping their recycle/epoch boundary\n\n" +
		"pooled shells and arena-carved buffers stored into fields, package\n" +
		"vars, or channels, or returned, outlive their generation; only\n" +
		"//pool:boundary lifecycle functions may publish them.",
	Run: run,
}

// registry lists the repository's pool-scoped types for cross-package
// analysis (the in-package `//pool:scoped` marker is authoritative when
// the declaring package itself is under analysis).
var registry = map[string]bool{
	"repro/internal/route.NetRC": true,
}

// directives: the marker family on types and lifecycle functions, plus
// the pass's own line-level exception.
var (
	poolDirective = analysis.DirectiveSpec{
		Name:  "pool",
		Verbs: map[string]bool{"scoped": false, "boundary": true},
	}
	ignoreDirective = analysis.DirectiveSpec{
		Name:  "poolescape",
		Verbs: map[string]bool{"ignore": true},
	}
)

func run(pass *analysis.Pass) error {
	// First sweep: validate directives and collect marked lines, then
	// resolve in-package scoped types from their declarations.
	type fileMarks struct {
		scoped, boundary, ignored map[int]bool
	}
	marks := make(map[*ast.File]fileMarks)
	local := make(map[types.Object]bool)
	for _, f := range pass.Files {
		valid := analysis.ScanDirectives(pass, f, poolDirective, ignoreDirective)
		fm := fileMarks{
			scoped:   valid["pool:scoped"],
			boundary: valid["pool:boundary"],
			ignored:  valid["poolescape:ignore"],
		}
		marks[f] = fm
		ast.Inspect(f, func(n ast.Node) bool {
			gd, ok := n.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				return true
			}
			for _, sp := range gd.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
					if commentOnLines(pass, doc, fm.scoped) {
						if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
							local[obj] = true
						}
					}
				}
			}
			return false
		})
	}

	scoped := func(t types.Type) bool { return scopedType(t, local) }

	for _, f := range pass.Files {
		fm := marks[f]
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.InTestFile(fn.Pos()) {
				continue
			}
			if commentOnLines(pass, fn.Doc, fm.boundary) {
				continue // sanctioned lifecycle API
			}
			checkFunc(pass, fn, scoped, fm.ignored)
		}
	}
	return nil
}

// commentOnLines reports whether any line of the comment group carries a
// validated directive line.
func commentOnLines(pass *analysis.Pass, cg *ast.CommentGroup, lines map[int]bool) bool {
	if cg == nil || len(lines) == 0 {
		return false
	}
	for _, c := range cg.List {
		if lines[pass.Fset.Position(c.Pos()).Line] {
			return true
		}
	}
	return false
}

// scopedType reports whether t is (a pointer to) a pool-scoped named
// type, by in-package marker or cross-package registry.
func scopedType(t types.Type, local map[types.Object]bool) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil {
		return false
	}
	if local[obj] {
		return true
	}
	if obj.Pkg() == nil {
		return false
	}
	return registry[obj.Pkg().Path()+"."+obj.Name()]
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, scoped func(types.Type) bool, ignored map[int]bool) {
	report := func(id string, pos token.Pos, format string, args ...interface{}) {
		if !ignored[pass.Fset.Position(pos).Line] {
			pass.Reportf(id, pos, format, args...)
		}
	}
	typeName := func(e ast.Expr) string {
		t := pass.TypesInfo.TypeOf(e)
		if t == nil {
			return "pool-scoped value"
		}
		return t.String()
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if node.Tok == token.DEFINE {
				return true // new locals: the value stays inside the frame
			}
			for i, lhs := range node.Lhs {
				escaping := false
				if len(node.Rhs) == len(node.Lhs) {
					escaping = scoped(pass.TypesInfo.TypeOf(node.Rhs[i])) && !isNilExpr(pass, node.Rhs[i])
				} else {
					// Tuple assignment from a call: judge by the slot's
					// own type.
					escaping = scoped(pass.TypesInfo.TypeOf(lhs))
				}
				if !escaping {
					continue
				}
				switch classifyTarget(pass, lhs) {
				case targetField:
					report("poolescape001", lhs.Pos(),
						"%s stored into a struct field outlives its recycle/epoch boundary; keep it local or mark the lifecycle function //pool:boundary <reason>", typeName(lhs))
				case targetPkgVar:
					report("poolescape002", lhs.Pos(),
						"%s stored into a package variable outlives its recycle/epoch boundary", typeName(lhs))
				}
			}
		case *ast.SendStmt:
			if scoped(pass.TypesInfo.TypeOf(node.Value)) && !isNilExpr(pass, node.Value) {
				report("poolescape003", node.Value.Pos(),
					"%s sent on a channel escapes to a receiver the pool's boundary cannot see", typeName(node.Value))
			}
		case *ast.ReturnStmt:
			for _, r := range node.Results {
				if scoped(pass.TypesInfo.TypeOf(r)) && !isNilExpr(pass, r) {
					report("poolescape004", r.Pos(),
						"%s returned past its recycle/epoch boundary; only //pool:boundary lifecycle functions may hand shells out", typeName(r))
				}
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(node)
			if t == nil {
				return true
			}
			if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
				return true
			}
			for _, elt := range node.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if scoped(pass.TypesInfo.TypeOf(val)) && !isNilExpr(pass, val) {
					report("poolescape001", val.Pos(),
						"%s stored into a struct literal field outlives its recycle/epoch boundary", typeName(val))
				}
			}
		}
		return true
	})
}

// isNilExpr reports whether the expression is the untyped nil (storing
// nil clears a slot; nothing escapes).
func isNilExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

type targetKind int

const (
	targetLocal targetKind = iota
	targetField
	targetPkgVar
)

// classifyTarget walks the assignment target's spine: any field
// selection along the way makes it a field store; a package-variable
// root makes it a package-var store; everything else stays local (a
// local variable, or an element of a local slice/map).
func classifyTarget(pass *analysis.Pass, lhs ast.Expr) targetKind {
	kind := targetLocal
	expr := lhs
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
				return targetField
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[e]; obj != nil && obj.Parent() == pass.Pkg.Scope() {
				return targetPkgVar
			}
			return kind
		default:
			return kind
		}
	}
}
