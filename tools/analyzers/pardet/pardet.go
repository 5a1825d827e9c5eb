// Package pardet statically checks the internal/par determinism
// contract inside the function literals handed to par.ParallelFor,
// par.ParallelForWorker and par.Do. The contract (par's package doc): work items execute in no
// particular order, so a kernel is deterministic exactly when each item
// writes only its own index-addressed slot and reads only state frozen
// for the duration of the call. The golden tables and the workers
// matrix catch violations dynamically — but only when they happen to
// change output on the tested schedules; this pass refuses the pattern
// itself.
//
// Inside a literal passed to ParallelFor (one int parameter — the work
// item index) or ParallelForWorker (two: the worker index, then the item
// index), the pass flags:
//
//   - writes to captured variables that are not element stores whose
//     index derives from the loop-index parameter (out[i] = v, or
//     n := d.Nets[i]; out[n.ID] = v — derivation is tracked through
//     local data flow); under ParallelForWorker a store indexed by the
//     worker parameter is a slot too — the worker's own scratch, which
//     no two concurrently running items share;
//   - append to a captured slice and writes into a captured map: both
//     mutate shared structure in schedule order;
//   - any use of a captured *rand.Rand, and any call of the global
//     math/rand functions: a stream consumed in scheduling order
//     differs run to run. Pre-split seeds per item instead (the
//     flow.AttemptSeed pattern).
//
// Inside the zero-parameter literals of one par.Do call, each closure
// owns whatever state it alone writes; the pass flags the same RNG uses
// plus any location written by two or more of the call's closures.
//
// Audited exceptions — e.g. a mutex-guarded par.Stats sink — carry
// `//pardet:ignore <reason>` on the offending line.
package pardet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/tools/analyzers/analysis"
)

const parPath = "repro/internal/par"

// Analyzer is the pass instance.
var Analyzer = &analysis.Analyzer{
	Name: "pardet",
	Doc: "flag schedule-dependent state in par.ParallelFor/par.Do work items\n\n" +
		"each work item must write only its own index-addressed slot and\n" +
		"draw no shared randomness; anything else is deterministic only by\n" +
		"schedule luck. //pardet:ignore <reason> marks audited exceptions.",
	Run: run,
}

// directive is the pass's exception family.
var directive = analysis.DirectiveSpec{
	Name:  "pardet",
	Verbs: map[string]bool{"ignore": true},
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == parPath {
		return nil // the pool's own implementation (worker bookkeeping)
	}
	for _, f := range pass.Files {
		ignored := analysis.ScanDirectives(pass, f, directive)["pardet:ignore"]
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParFanout(pass, call) || pass.InTestFile(call.Pos()) {
				return true
			}
			var doClosures []*ast.FuncLit
			for _, arg := range call.Args {
				lit, ok := ast.Unparen(arg).(*ast.FuncLit)
				if !ok {
					continue
				}
				switch lit.Type.Params.NumFields() {
				case 1, 2:
					checkIndexed(pass, lit, ignored)
				case 0:
					doClosures = append(doClosures, lit)
				}
			}
			checkDo(pass, doClosures, ignored)
			return true
		})
	}
	return nil
}

// isParFanout reports whether the call is par.ParallelFor,
// par.ParallelForWorker or par.Do.
func isParFanout(pass *analysis.Pass, call *ast.CallExpr) bool {
	obj := analysis.FuncObject(pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != parPath {
		return false
	}
	switch obj.Name() {
	case "ParallelFor", "ParallelForWorker", "Do":
		return true
	}
	return false
}

// checkIndexed enforces the per-item rules on a func(i int) or
// func(worker, i int) work item.
func checkIndexed(pass *analysis.Pass, lit *ast.FuncLit, ignored map[int]bool) {
	tainted := taintFromIndex(pass, lit)
	report := func(id string, pos token.Pos, format string, args ...interface{}) {
		if !ignored[pass.Fset.Position(pos).Line] {
			pass.Reportf(id, pos, format, args...)
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if node.Tok == token.DEFINE {
				return true // defines new locals; never a captured write
			}
			for i, lhs := range node.Lhs {
				var rhs ast.Expr
				if len(node.Rhs) == len(node.Lhs) {
					rhs = node.Rhs[i]
				}
				checkWrite(pass, lit, lhs, rhs, tainted, report)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, lit, node.X, nil, tainted, report)
		case *ast.CallExpr:
			checkCall(pass, lit, node, report)
		case *ast.Ident:
			checkRandIdent(pass, lit, node, report)
		}
		return true
	})
}

// checkWrite classifies one assignment target inside the work item.
func checkWrite(pass *analysis.Pass, lit *ast.FuncLit, lhs, rhs ast.Expr,
	tainted map[types.Object]bool, report func(string, token.Pos, string, ...interface{})) {
	root, sawIndex, sawTaintedIndex, mapWrite := spine(pass, lhs, tainted)
	if root == nil || !captured(pass, lit, root) {
		return
	}
	switch {
	case mapWrite:
		report("pardet004", lhs.Pos(),
			"work item writes into captured map through %s: map mutation is shared structure in schedule order; use an index-addressed slice slot", root.Name())
	case sawTaintedIndex:
		// The sanctioned shape: an element store addressed by the work
		// item's own index (directly or through local derivation).
	case appendsTo(pass, rhs, root):
		// x = append(x, …): the call-site check reports the append
		// itself; reporting the assignment too would double-flag.
	case sawIndex:
		report("pardet002", lhs.Pos(),
			"work item stores through captured %s at an index that does not derive from the loop-index parameter; items may collide on a slot", root.Name())
	default:
		report("pardet001", lhs.Pos(),
			"work item writes captured variable %s: not an index-addressed slot, so the last scheduled item wins (//pardet:ignore <reason> for audited sinks)", root.Name())
	}
}

// checkCall flags appends to captured containers and global math/rand
// draws inside an indexed work item.
func checkCall(pass *analysis.Pass, lit *ast.FuncLit, call *ast.CallExpr,
	report func(string, token.Pos, string, ...interface{})) {
	if arg, ok := appendDst(pass, call); ok {
		if root, _, _, _ := spine(pass, arg, nil); root != nil && captured(pass, lit, root) {
			report("pardet003", call.Pos(),
				"work item appends to captured slice %s: element order depends on the schedule; write an index-addressed slot instead", root.Name())
		}
		return
	}
	checkGlobalRand(pass, call, report)
}

// checkGlobalRand flags calls of package-level math/rand functions that
// draw from the shared global stream. The New* constructors are exempt:
// rand.New(rand.NewSource(seed)) builds the per-item generator the
// sanctioned pattern calls for and touches no shared state.
func checkGlobalRand(pass *analysis.Pass, call *ast.CallExpr,
	report func(string, token.Pos, string, ...interface{})) {
	obj := analysis.FuncObject(pass.TypesInfo, call)
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil &&
		(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") &&
		fn.Type().(*types.Signature).Recv() == nil &&
		!strings.HasPrefix(fn.Name(), "New") {
		report("pardet006", call.Pos(),
			"work item draws from the global math/rand stream (%s): consumption order follows the schedule; pre-split a seed per item (flow.AttemptSeed)", fn.Name())
	}
}

// appendDst returns the destination argument when call is the append
// builtin.
func appendDst(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return nil, false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return nil, false
	}
	return call.Args[0], true
}

// checkRandIdent flags any use of a captured *rand.Rand inside the work
// item: even seemingly read-only draws advance the shared stream in
// schedule order.
func checkRandIdent(pass *analysis.Pass, lit *ast.FuncLit, id *ast.Ident,
	report func(string, token.Pos, string, ...interface{})) {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || !captured(pass, lit, obj) {
		return
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	if analysis.NamedFrom(obj.Type(), "math/rand", "Rand") || analysis.NamedFrom(obj.Type(), "math/rand/v2", "Rand") {
		report("pardet005", id.Pos(),
			"work item uses captured *rand.Rand %s: a shared stream consumed in schedule order differs run to run; pre-split seeds per item (flow.AttemptSeed)", obj.Name())
	}
}

// checkDo cross-checks the zero-parameter closures of one par.Do call:
// a location written by two or more of them is shared mutable state with
// schedule-dependent outcome. (A location one closure alone writes is
// that closure's own slot — cts's t.left/t.right fork.)
func checkDo(pass *analysis.Pass, closures []*ast.FuncLit, ignored map[int]bool) {
	if len(closures) < 2 {
		return
	}
	type site struct {
		pos  token.Pos
		path string
	}
	writers := make(map[string][]int) // path -> closure ordinals (deduped)
	var sites [][]site
	for ci, lit := range closures {
		var mine []site
		seen := make(map[string]bool)
		report := func(id string, pos token.Pos, format string, args ...interface{}) {
			if !ignored[pass.Fset.Position(pos).Line] {
				pass.Reportf(id, pos, format, args...)
			}
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			var targets []ast.Expr
			switch node := n.(type) {
			case *ast.AssignStmt:
				if node.Tok != token.DEFINE {
					for i, lhs := range node.Lhs {
						// x = append(x, …) is one written location, not
						// two: the append-destination visit records it.
						if len(node.Rhs) == len(node.Lhs) {
							if r, _, _, _ := spine(pass, lhs, nil); r != nil && appendsTo(pass, node.Rhs[i], r) {
								continue
							}
						}
						targets = append(targets, lhs)
					}
				}
			case *ast.IncDecStmt:
				targets = []ast.Expr{node.X}
			case *ast.CallExpr:
				// An append destination is a written location like any
				// other: two closures appending to the same captured
				// slice collide, one closure alone owns it.
				if arg, ok := appendDst(pass, node); ok {
					targets = []ast.Expr{arg}
				} else {
					checkGlobalRand(pass, node, report)
				}
			case *ast.Ident:
				checkRandIdent(pass, lit, node, report)
			}
			for _, t := range targets {
				root, _, _, mapWrite := spine(pass, t, nil)
				if root == nil || !captured(pass, lit, root) {
					continue
				}
				p := renderPath(pass, t, mapWrite)
				mine = append(mine, site{pos: t.Pos(), path: p})
				if !seen[p] {
					seen[p] = true
					writers[p] = append(writers[p], ci)
				}
			}
			return true
		})
		sites = append(sites, mine)
	}
	for _, mine := range sites {
		for _, s := range mine {
			if len(writers[s.path]) > 1 && !ignored[pass.Fset.Position(s.pos).Line] {
				pass.Reportf("pardet007", s.pos,
					"multiple par.Do closures write %s: par.Do promises nothing about their interleaving; each closure must own its writes exclusively", s.path)
			}
		}
	}
}

// renderPath renders a write target for cross-closure comparison:
// `t.left` and `t.right` are distinct slots, `buf[0]` and `buf[1]` are
// distinct, `buf[i]` and `buf[j]` conservatively collide, and two writes
// into the same map collide whatever the keys (the map header itself is
// shared structure).
func renderPath(pass *analysis.Pass, expr ast.Expr, mapWrite bool) string {
	var render func(e ast.Expr) string
	render = func(e ast.Expr) string {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return render(x.X) + "." + x.Sel.Name
		case *ast.StarExpr:
			return "*" + render(x.X)
		case *ast.IndexExpr:
			base := render(x.X)
			if mapWrite {
				return base // keys don't matter: the map is the shared object
			}
			if lit, ok := ast.Unparen(x.Index).(*ast.BasicLit); ok {
				return base + "[" + lit.Value + "]"
			}
			return base + "[?]"
		default:
			return "?" + strconv.Itoa(int(e.Pos()))
		}
	}
	return render(expr)
}

// spine walks an assignment target (or append destination) down to its
// root identifier, noting whether any index along the way is tainted by
// the loop-index parameter and whether the innermost store is a map
// write.
func spine(pass *analysis.Pass, expr ast.Expr, tainted map[types.Object]bool) (root types.Object, sawIndex, sawTaintedIndex, mapWrite bool) {
	first := true
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[e]; obj != nil {
				root = obj
			}
			return
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			if t := pass.TypesInfo.TypeOf(e.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && first {
					mapWrite = true
				}
			}
			sawIndex = true
			if tainted != nil && referencesTainted(pass, e.Index, tainted) {
				sawTaintedIndex = true
			}
			expr = e.X
		default:
			return
		}
		first = false
	}
}

// captured reports whether obj is declared outside the literal (an
// enclosing function's local, a receiver, or a package variable).
func captured(pass *analysis.Pass, lit *ast.FuncLit, obj types.Object) bool {
	if obj == nil || obj.Pos() == token.NoPos {
		return false
	}
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// taintFromIndex computes the set of objects whose value derives from
// the work item's index parameters (the item index, and the worker
// index of a ParallelForWorker item), by local data flow to a fixpoint:
// x := expr taints x when expr mentions anything tainted, and ranging
// over a tainted collection taints the iteration variables.
func taintFromIndex(pass *analysis.Pass, lit *ast.FuncLit) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				tainted[obj] = true
			}
		}
	}
	for round := 0; round < 10; round++ {
		grew := false
		mark := func(id *ast.Ident) {
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil && !tainted[obj] {
				tainted[obj] = true
				grew = true
			}
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.AssignStmt:
				anyTainted := false
				for _, r := range node.Rhs {
					if referencesTainted(pass, r, tainted) {
						anyTainted = true
					}
				}
				if !anyTainted {
					return true
				}
				for _, l := range node.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); ok {
						mark(id)
					}
				}
			case *ast.RangeStmt:
				if !referencesTainted(pass, node.X, tainted) {
					return true
				}
				for _, k := range []ast.Expr{node.Key, node.Value} {
					if id, ok := k.(*ast.Ident); ok && id != nil {
						mark(id)
					}
				}
			case *ast.GenDecl:
				for _, sp := range node.Specs {
					vs, ok := sp.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) && referencesTainted(pass, vs.Values[i], tainted) {
							mark(name)
						} else if len(vs.Values) == 1 && len(vs.Names) > 1 && referencesTainted(pass, vs.Values[0], tainted) {
							mark(name)
						}
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
	return tainted
}

// referencesTainted reports whether expr mentions any tainted object.
func referencesTainted(pass *analysis.Pass, expr ast.Expr, tainted map[types.Object]bool) bool {
	if expr == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// appendsTo reports whether rhs is an append whose destination has the
// given root — the x = append(x, …) shape, reported at the call site.
func appendsTo(pass *analysis.Pass, rhs ast.Expr, root types.Object) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	arg, ok := appendDst(pass, call)
	if !ok {
		return false
	}
	argRoot, _, _, _ := spine(pass, arg, nil)
	return argRoot == root
}
