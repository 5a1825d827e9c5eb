// Package hotalloc flags allocation patterns inside `//hotpath:kernel`-marked
// functions. The dense-index refactor pays for itself only while the
// hot kernels stay off the allocator: the flow calls them once per net,
// per node, or per region, so a single reintroduced map or
// per-iteration slice rebuild multiplies by millions at scale 1.0 —
// and shows up as a diffuse regression long after the offending commit.
//
// A function is hot when its doc comment contains a `//hotpath:kernel`
// directive line. Inside one, the pass flags:
//
//   - map creation anywhere (make(map[...]) or a map literal): maps
//     allocate on creation and rehash on growth; hot kernels use dense
//     index slices or epoch-stamped scratch instead. Clearing a
//     retained map (clear(m)) stays legal.
//   - make of any kind inside a loop: a per-iteration allocation.
//     One-time sizing belongs outside the loop, in reusable scratch
//     (dense.Grow / dense.Zero).
//   - append inside a loop to a slice that is (re)declared empty in
//     that same loop body: the slice regrows from zero every
//     iteration. Appending to scratch declared outside the loop, or to
//     a buffer whose capacity came from a call (dense.Grow(buf, n),
//     AppendPinLocs(buf[:0])), is the sanctioned reuse pattern and is
//     not flagged.
//   - math/rand.New, math/rand.NewSource and (*rand.Rand).Perm, and
//     math/rand/v2's New, NewPCG and Perm: a fresh source is an
//     allocation (~5 KB plus its seeding for math/rand), and Perm a
//     fresh slice per call. A kernel draws from a *rand.Rand its caller
//     keeps, re-seeded per run, into a buffer its caller keeps.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the pass instance.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag allocation patterns in //hotpath:kernel-marked kernels\n\n" +
		"hot kernels run once per net/node/region; maps, in-loop makes,\n" +
		"and per-iteration append growth there multiply by millions at\n" +
		"scale 1.0 and must use the dense scratch idioms instead.",
	Run: run,
}

// directive is the marker family; ScanDirectives reports malformed
// instances (e.g. //hotpath:kernl, which silently un-marks the kernel).
var directive = analysis.DirectiveSpec{
	Name:  "hotpath",
	Verbs: map[string]bool{"kernel": false},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		analysis.ScanDirectives(pass, f, directive)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHot(fn) {
				continue
			}
			if pass.InTestFile(fn.Pos()) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// isHot reports whether the function's doc comment carries the
// //hotpath:kernel directive.
func isHot(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == "//hotpath:kernel" {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	declInit := declInits(pass, fn)

	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		loop := innermostLoop(stack)
		switch node := n.(type) {
		case *ast.CompositeLit:
			if _, ok := pass.TypesInfo.Types[node].Type.Underlying().(*types.Map); ok {
				pass.Reportf("hotalloc001", node.Pos(),
					"hot path allocates a map literal; use a dense index slice or epoch-stamped scratch")
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass, node); fn != nil && randAllocs[fn.FullName()] {
				pass.Reportf("hotalloc005", node.Pos(),
					"hot path calls %s, which allocates per call; keep the *rand.Rand and its buffers in reusable state and re-seed it per run", fn.FullName())
			}
			switch builtinName(pass, node) {
			case "make":
				if _, ok := pass.TypesInfo.Types[node].Type.Underlying().(*types.Map); ok {
					pass.Reportf("hotalloc002", node.Pos(),
						"hot path allocates a map (make); use a dense index slice or epoch-stamped scratch")
				} else if loop != nil {
					pass.Reportf("hotalloc003", node.Pos(),
						"hot path calls make inside a loop (a per-iteration allocation); hoist it into reusable scratch (dense.Grow)")
				}
			case "append":
				if loop == nil || len(node.Args) == 0 {
					break
				}
				dst, ok := ast.Unparen(node.Args[0]).(*ast.Ident)
				if !ok {
					break
				}
				obj := pass.TypesInfo.Uses[dst]
				if obj == nil || obj.Pos() < loop.Pos() || obj.Pos() >= loop.End() {
					break // declared outside the loop: amortized reuse
				}
				if init, known := declInit[obj]; known && growsFromZero(init) {
					pass.Reportf("hotalloc004", node.Pos(),
						"hot path regrows slice %s from zero every iteration; reuse a scratch buffer declared outside the loop", dst.Name)
				}
			}
		}
		return true
	})
}

// declInits maps every := / var-declared object of the function to its
// initializer expression (nil when declared without one).
func declInits(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]ast.Expr {
	out := make(map[types.Object]ast.Expr)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.AssignStmt:
			if d.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range d.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					continue
				}
				if len(d.Rhs) == len(d.Lhs) {
					out[obj] = d.Rhs[i]
				} else if len(d.Rhs) == 1 {
					out[obj] = d.Rhs[0] // multi-value call: not a zero start
				}
			}
		case *ast.ValueSpec:
			for i, id := range d.Names {
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					continue
				}
				if i < len(d.Values) {
					out[obj] = d.Values[i]
				} else {
					out[obj] = nil
				}
			}
		}
		return true
	})
	return out
}

// growsFromZero reports whether the initializer leaves the slice with no
// usable capacity, so per-iteration appends must allocate: no
// initializer (`var x []T`), nil, or an empty literal. Initializers that
// carry capacity from elsewhere — a call (dense.Grow(buf, n)), a reslice
// (buf[:0]), another variable — are the reuse idiom and pass.
func growsFromZero(init ast.Expr) bool {
	switch e := ast.Unparen(init).(type) {
	case nil:
		return true
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	}
	return false
}

// innermostLoop returns the body of the innermost for/range statement on
// the stack whose body encloses the current node, or nil.
func innermostLoop(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.ForStmt:
			if inBody(s.Body, stack, i) {
				return s.Body
			}
		case *ast.RangeStmt:
			if inBody(s.Body, stack, i) {
				return s.Body
			}
		}
	}
	return nil
}

// inBody reports whether the stack entry directly above the loop at
// index i descends through its body (not its init/cond/post clauses).
func inBody(body *ast.BlockStmt, stack []ast.Node, i int) bool {
	return i+1 < len(stack) && stack[i+1] == body
}

// randAllocs names the math/rand and math/rand/v2 entry points that
// allocate per call.
var randAllocs = map[string]bool{
	"math/rand.New":             true,
	"math/rand.NewSource":       true,
	"(*math/rand.Rand).Perm":    true,
	"math/rand/v2.New":          true,
	"math/rand/v2.NewPCG":       true,
	"(*math/rand/v2.Rand).Perm": true,
}

// calleeFunc returns the function or method a call invokes statically,
// or nil (builtins, function values, conversions).
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(pass *analysis.Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}
