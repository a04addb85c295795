package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Obspurity enforces the two-plane telemetry contract of internal/obs:
// host-plane values (wall-clock readings and anything derived from them)
// may never flow into engine state or into the sim plane of the obs
// registry. Host-plane storage and host-plane-only functions are declared
// with `//p3q:hostplane <reason>` on a struct field or a function; inside
// a deterministic-scope package the analyzer then taint-tracks, per
// function body, every value rooted in internal/hostclock, in a
// hostplane-marked field, or in a hostplane-marked function's result, and
// reports when a tainted value
//
//   - is assigned (or composite-literal bound) to a field that is not
//     itself marked hostplane — that is host time leaking into state;
//   - steers control flow (an if/for/switch condition) — that is engine
//     behavior depending on the host clock;
//   - is returned from a function not marked hostplane — that is taint
//     escaping the analysis unlabelled; or
//   - is passed to a sim-plane mutator of the obs registry (Inc, Add,
//     Event, AddShardIntent) — that is host time corrupting the
//     reproducible plane. This last check applies inside hostplane
//     functions too: being host-plane-only is exactly why they must not
//     write the sim plane.
//
// Functions marked `//p3q:hostplane` are exempt from the first three
// rules: the annotation asserts the whole function is observability-only,
// and the directive is the reviewable record of that claim. Like
// phasepurity, this is an intra-procedural check, not an escape analysis:
// taint stops at ordinary call boundaries (a callee's result is clean),
// and the obs fingerprint-invariance tests remain the dynamic backstop.
var Obspurity = &Analyzer{Name: "obspurity", Run: runObspurity}

// simPlaneMutators are the obs.Registry methods that write the sim plane.
var simPlaneMutators = map[string]bool{
	"Inc":            true,
	"Add":            true,
	"Event":          true,
	"AddShardIntent": true,
}

func runObspurity(pass *Pass) {
	if !inScope(pass.Path, DeterministicScopes) {
		return
	}

	// Pass 1 over all files: attach //p3q:hostplane directives to struct
	// fields and function declarations, indexed by object so uses in one
	// file see annotations granted in another.
	hostplane := map[types.Object]bool{}
	attach := func(pos token.Pos, idents ...*ast.Ident) {
		if len(pass.directivesAt(pos, hostplaneVerb)) > 0 {
			for _, id := range idents {
				if obj := pass.Info.Defs[id]; obj != nil {
					hostplane[obj] = true
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				attach(fd.Pos(), fd.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					attach(field.Pos(), field.Names...)
				}
			}
			return true
		})
	}

	// Pass 2: taint-track each function body.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkHostplaneFlows(pass, fn, hostplane, hostplane[pass.Info.Defs[fn.Name]])
			}
		}
	}
}

// checkHostplaneFlows runs the per-function taint analysis described on
// Obspurity. exempt relaxes the state/control-flow/return rules for a
// function that is itself declared hostplane.
func checkHostplaneFlows(pass *Pass, fn *ast.FuncDecl, hostplane map[types.Object]bool, exempt bool) {
	tainted := map[types.Object]bool{}

	// fieldObj resolves a selector to the struct field it reads or writes,
	// or nil for anything else (package selectors, method values).
	fieldObj := func(sel *ast.SelectorExpr) types.Object {
		s := pass.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return nil
		}
		return s.Obj()
	}

	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[x]
			return tainted[obj] || isHostclockValue(pass.Info.TypeOf(x))
		case *ast.SelectorExpr:
			if hostplane[fieldObj(x)] {
				return true
			}
			return isHostclockValue(pass.Info.TypeOf(x)) || taintedExpr(x.X)
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[x.Fun]; ok && tv.IsType() {
				// A conversion passes the value through unchanged.
				return len(x.Args) == 1 && taintedExpr(x.Args[0])
			}
			return taintedCall(pass, x, hostplane)
		case *ast.BinaryExpr:
			return taintedExpr(x.X) || taintedExpr(x.Y)
		case *ast.UnaryExpr:
			return taintedExpr(x.X)
		case *ast.ParenExpr:
			return taintedExpr(x.X)
		case *ast.StarExpr:
			return taintedExpr(x.X)
		}
		return false
	}

	// taintedRHS reports whether the value assigned to as.Lhs[i] is
	// tainted: its paired right-hand side, or the single multi-value one.
	taintedRHS := func(as *ast.AssignStmt, i int) bool {
		switch len(as.Rhs) {
		case len(as.Lhs):
			return taintedExpr(as.Rhs[i])
		case 1:
			return taintedExpr(as.Rhs[0])
		}
		return false
	}

	// Taint propagation to locals runs to a fixpoint: a body may read a
	// variable lexically before the assignment that taints it is visited.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj != nil && !tainted[obj] && taintedRHS(as, i) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if exempt {
				return true
			}
			for i, lhs := range x.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				fobj := fieldObj(sel)
				if fobj == nil || hostplane[fobj] {
					continue
				}
				if taintedRHS(x, i) {
					pass.Reportf(lhs.Pos(), "%s writes a host-plane value into field %s, which is not marked //p3q:%s: host wall time must never become state (store it in a hostplane-marked field or route it to the obs registry's host plane)", fn.Name.Name, fobj.Name(), hostplaneVerb)
				}
			}
		case *ast.CompositeLit:
			if exempt {
				return true
			}
			checkCompositeTaint(pass, fn, x, hostplane, taintedExpr)
		case *ast.IfStmt:
			if !exempt && x.Cond != nil && taintedExpr(x.Cond) {
				pass.Reportf(x.Cond.Pos(), "%s branches on a host-plane value: engine control flow must not depend on the host clock (move the comparison into a //p3q:%s function if it is observability-only)", fn.Name.Name, hostplaneVerb)
			}
		case *ast.ForStmt:
			if !exempt && x.Cond != nil && taintedExpr(x.Cond) {
				pass.Reportf(x.Cond.Pos(), "%s loops on a host-plane value: engine control flow must not depend on the host clock", fn.Name.Name)
			}
		case *ast.SwitchStmt:
			if !exempt && x.Tag != nil && taintedExpr(x.Tag) {
				pass.Reportf(x.Tag.Pos(), "%s switches on a host-plane value: engine control flow must not depend on the host clock", fn.Name.Name)
			}
		case *ast.ReturnStmt:
			if exempt {
				return true
			}
			for _, res := range x.Results {
				if taintedExpr(res) {
					pass.Reportf(res.Pos(), "%s returns a host-plane value but is not marked //p3q:%s: annotate the function (declaring it observability-only) so the taint stays labelled", fn.Name.Name, hostplaneVerb)
				}
			}
		case *ast.CallExpr:
			// The sim-plane rule holds everywhere, exempt or not.
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || !simPlaneMutators[sel.Sel.Name] || !isObsRegistry(pass.Info.TypeOf(sel.X)) {
				return true
			}
			for _, arg := range x.Args {
				if taintedExpr(arg) {
					pass.Reportf(arg.Pos(), "%s feeds a host-plane value into obs.Registry.%s: the sim plane must stay reproducible, so only engine-state-derived values may enter it (host timings belong in SamplePhase/SampleShardDuration/SampleCommitSkew)", fn.Name.Name, sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// checkCompositeTaint flags tainted values bound to non-hostplane fields
// in a struct composite literal (both keyed and positional forms).
func checkCompositeTaint(pass *Pass, fn *ast.FuncDecl, lit *ast.CompositeLit, hostplane map[types.Object]bool, taintedExpr func(ast.Expr) bool) {
	st, ok := pass.Info.TypeOf(lit).Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var field *types.Var
		val := elt
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			if key, isIdent := kv.Key.(*ast.Ident); isIdent {
				field, _ = pass.Info.Uses[key].(*types.Var)
			}
			val = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i)
		}
		if field == nil || hostplane[field] {
			continue
		}
		if taintedExpr(val) {
			pass.Reportf(val.Pos(), "%s binds a host-plane value to field %s, which is not marked //p3q:%s: host wall time must never become state", fn.Name.Name, field.Name(), hostplaneVerb)
		}
	}
}

// taintedCall reports whether a call expression produces a tainted value:
// any call into internal/hostclock (package function or Stopwatch method)
// and any call of a //p3q:hostplane-marked function.
func taintedCall(pass *Pass, call *ast.CallExpr, hostplane map[types.Object]bool) bool {
	obj := pass.Info.Uses[calleeIdent(call)]
	if hostplane[obj] || obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == hostclockPath {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && isHostclockValue(pass.Info.TypeOf(sel.X))
}

// isHostclockValue reports whether t (possibly behind a pointer) is a
// named type declared in internal/hostclock — every such value is a
// wall-clock artifact.
func isHostclockValue(t types.Type) bool {
	obj := namedObj(t)
	return obj != nil && obj.Pkg().Path() == hostclockPath
}

const hostclockPath = "p3q/internal/hostclock"

// isObsRegistry reports whether t (possibly behind a pointer) is the
// obs.Registry type.
func isObsRegistry(t types.Type) bool {
	obj := namedObj(t)
	return obj != nil && obj.Name() == "Registry" && obj.Pkg().Path() == "p3q/internal/obs"
}
