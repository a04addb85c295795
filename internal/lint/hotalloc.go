package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocating constructs inside functions annotated
// `//p3q:hotpath` — the per-cycle plan/commit inner loops whose
// pointer-churn is the current scale ceiling (see the ROADMAP's
// million-node SoA item). Flagged constructs: map and slice composite
// literals, make and new, &struct{} literals, calls into package fmt,
// string concatenation, conversions between string and []byte/[]rune,
// and implicit interface boxing at call arguments. A construct that must
// stay (a once-per-call result slice, a cold error path) is excused with
// a trailing `//p3q:alloc <reason>` on its line.
//
// append is deliberately not flagged: growth into a pre-sized or reused
// backing array is the pattern the pooled buffers converge on, and the
// analyzer cannot see capacity.
var HotAlloc = &Analyzer{Name: "hotalloc", Run: runHotAlloc}

func runHotAlloc(pass *Pass) {
	if !inScope(pass.Path, HotpathScopes) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && len(pass.directivesAt(fn.Pos(), hotpathVerb)) > 0 && fn.Body != nil {
				checkHotBody(pass, fn)
			}
		}
	}
}

// checkHotBody walks one hotpath function body and reports each
// allocating construct not excused by an //p3q:alloc directive.
func checkHotBody(pass *Pass, fn *ast.FuncDecl) {
	report := func(pos token.Pos, format string, args ...any) {
		if len(pass.directivesAt(pos, allocVerb)) == 0 {
			args = append(args, fn.Name.Name, allocVerb)
			pass.Reportf(pos, format+" in hotpath function %s (excuse with //p3q:%s <reason>)", args...)
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(x)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				report(x.Pos(), "map literal %s allocates", typeString(t))
			case *types.Slice:
				report(x.Pos(), "slice literal %s allocates", typeString(t))
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					report(x.Pos(), "&%s literal heap-allocates", typeString(pass.Info.TypeOf(x.X)))
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pass.Info.TypeOf(x)) {
				if tv, ok := pass.Info.Types[x]; ok && tv.Value != nil {
					return true // constant-folded at compile time
				}
				report(x.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			checkHotCall(pass, report, x)
		}
		return true
	})
}

// checkHotCall classifies one call expression in a hotpath body: builtin
// allocators, fmt calls, allocating conversions, and interface boxing of
// arguments.
func checkHotCall(pass *Pass, report func(token.Pos, string, ...any), call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// A conversion. string<->[]byte/[]rune copies; converting a
		// concrete value to an interface type boxes it.
		to := tv.Type
		from := pass.Info.TypeOf(call.Args[0])
		switch {
		case isStringType(to) != isStringType(from):
			report(call.Pos(), "conversion to %s copies its operand", typeString(to))
		case isInterfaceType(to) && !isInterfaceType(from):
			report(call.Pos(), "conversion of %s to interface %s boxes the value", typeString(from), typeString(to))
		}
		return
	}
	if isBuiltin(pass, call.Fun, "make") {
		report(call.Pos(), "make allocates per call; reuse a pooled or per-shard buffer")
		return
	}
	if isBuiltin(pass, call.Fun, "new") {
		report(call.Pos(), "new allocates per call; reuse a pooled or per-shard value")
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				report(call.Pos(), "fmt.%s formats into fresh allocations", sel.Sel.Name)
				return
			}
		}
	}
	// Implicit interface boxing at arguments: a concrete value passed
	// where the callee takes an interface is heap-boxed per call.
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := pass.Info.TypeOf(arg)
		if tv, ok := pass.Info.Types[arg]; ok && tv.IsNil() {
			continue
		}
		if isInterfaceType(pt) && at != nil && !isInterfaceType(at) {
			report(arg.Pos(), "passing %s as %s boxes the value", typeString(at), typeString(pt))
		}
	}
}

// isBuiltin reports whether fun denotes the named builtin.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.Info.Uses[id].(*types.Builtin)
	return ok
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}
