package lint

import (
	"go/ast"
	"go/types"
)

// The two phases a function can be assigned to with //p3q:phase.
const (
	planPhase   = "plan"
	commitPhase = "commit"
)

// PhasePurity enforces the plan/commit phase contract of the cycle
// engine. Functions annotated `//p3q:phase plan` run concurrently on
// worker goroutines against cycle-start state, so they may not write
// through an Engine-typed value (mutations must flow through returned
// plan/intent values; a plan function may still normalize its own node,
// because each unit of work owns one node's state exclusively). Any
// function called directly from a worker closure passed to forEachIndex,
// forEachNode, or commitSharded must itself carry a phase annotation
// matching the spawner's, so new helpers cannot slip into the parallel
// sections unreviewed. What a `//p3q:phase commit` function does is
// policed elsewhere: map iteration by maporder, and a randomness draw by
// the goldens, which fail on any draw that moves a stream.
//
// The write check is a direct-assignment check, not an escape analysis:
// it flags assignments and ++/-- whose target chain passes through a
// value of the package's Engine type. Mutations hidden behind method
// calls are out of its reach — those are what the Workers=1-vs-N
// fingerprint tests remain for.
var PhasePurity = &Analyzer{Name: "phasepurity", Run: runPhasePurity}

func runPhasePurity(pass *Pass) {
	if !inScope(pass.Path, DeterministicScopes) {
		return
	}

	// Pass 1 over all files: attach //p3q:phase directives to function
	// declarations and index the declarations by their object, so calls
	// in one file can see annotations granted in another.
	phaseOf := map[types.Object]string{}
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj != nil {
				decls[obj] = fd
			}
			for _, d := range pass.directivesAt(fd.Pos(), phaseVerb) {
				switch d.reason {
				case planPhase, commitPhase:
					if prev, ok := phaseOf[obj]; ok && prev != d.reason {
						pass.Reportf(d.pos, "conflicting //p3q:phase directives on %s: %s and %s (a function belongs to exactly one phase)", fd.Name.Name, prev, d.reason)
						continue
					}
					if obj != nil {
						phaseOf[obj] = d.reason
					}
				default:
					pass.Reportf(d.pos, "//p3q:phase directive needs a phase argument: plan or commit")
				}
			}
		}
	}

	// Pass 2: enforce the per-phase body contracts and the annotation
	// coverage of worker-closure callees.
	reported := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if phaseOf[pass.Info.Defs[fn.Name]] == planPhase {
				checkPlanWrites(pass, fn)
			}
			checkWorkerClosures(pass, fn, phaseOf, decls, reported)
		}
	}
}

// checkPlanWrites flags assignment targets in a plan-phase function whose
// selector/index chain passes through an Engine-typed value: those writes
// land in shared engine state while sibling workers are still reading it.
func checkPlanWrites(pass *Pass, fn *ast.FuncDecl) {
	check := func(target ast.Expr) {
		for e := target; ; {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if isEngineType(pass.Info.TypeOf(x.X)) {
					pass.Reportf(target.Pos(), "plan-phase function %s writes engine shared state (%s): plan runs concurrently against cycle-start state, so mutations must flow through the returned plan value and be applied at commit", fn.Name.Name, typeString(pass.Info.TypeOf(target)))
					return
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(st.X)
		}
		return true
	})
}

// workerSpawners names the Engine methods that fan work out to goroutines
// and the phase their closures run in.
var workerSpawners = map[string]string{
	"forEachIndex":  planPhase,
	"forEachNode":   planPhase,
	"commitSharded": commitPhase,
}

// checkWorkerClosures requires every same-package function called
// directly from a func literal passed to forEachIndex/forEachNode/
// commitSharded to carry a //p3q:phase annotation matching the spawner's
// phase. One diagnostic per function, at its declaration.
func checkWorkerClosures(pass *Pass, fn *ast.FuncDecl, phaseOf map[types.Object]string, decls map[types.Object]*ast.FuncDecl, reported map[types.Object]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		phase, ok := workerSpawners[sel.Sel.Name]
		if !ok || !isEngineType(pass.Info.TypeOf(sel.X)) {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				inner, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeIdent(inner)
				if callee == nil {
					return true
				}
				obj := pass.Info.Uses[callee]
				fd, declared := decls[obj]
				if obj == nil || !declared || reported[obj] {
					return true
				}
				got, annotated := phaseOf[obj]
				switch {
				case !annotated:
					reported[obj] = true
					pass.Reportf(fd.Pos(), "%s is called from a %s worker closure but has no //p3q:phase annotation (annotate //p3q:phase %s and satisfy its contract)", fd.Name.Name, sel.Sel.Name, phase)
				case got != phase:
					reported[obj] = true
					pass.Reportf(fd.Pos(), "%s is annotated //p3q:phase %s but is called from a %s worker closure, which runs in the %s phase", fd.Name.Name, got, sel.Sel.Name, phase)
				}
				return true
			})
		}
		return true
	})
}

// isEngineType reports whether t (possibly behind a pointer) is a named
// type called Engine declared in a deterministic-scope package — the
// cycle engine whose shared state the plan phase must not touch.
func isEngineType(t types.Type) bool {
	obj := namedObj(t)
	return obj != nil && obj.Name() == "Engine" && inScope(obj.Pkg().Path(), DeterministicScopes)
}
