package lint

import (
	"go/ast"
	"go/types"
)

// StickyErr enforces the codec discipline of the binary formats (trace,
// checkpoint, wire) and of internal/binio under them. The formats are
// validated streams: a single unobserved short write or read
// desynchronizes every later field, so no call whose results include an
// error may have that error discarded — not as a bare statement, not
// deferred, not assigned to blank. Raw stream access beside binio needs no
// rule of its own: binio's Writer and Reader own a 4 KiB buffer, so a raw
// read or write next to them desynchronizes the stream, and the format
// round-trip and golden tests fail on it.
var StickyErr = &Analyzer{Name: "stickyerr", Run: runStickyErr}

func runStickyErr(pass *Pass) {
	if !inScope(pass.Path, CodecScopes) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						reportDroppedError(pass, call, "call discards its error result")
					}
				case *ast.DeferStmt:
					reportDroppedError(pass, n.Call, "deferred call discards its error result")
				case *ast.GoStmt:
					reportDroppedError(pass, n.Call, "goroutine call discards its error result")
				case *ast.AssignStmt:
					checkBlankErrorAssign(pass, n)
				}
				return true
			})
		}
	}
}

// reportDroppedError flags call when its result tuple contains an error.
func reportDroppedError(pass *Pass, call *ast.CallExpr, what string) {
	t := pass.Info.TypeOf(call)
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				pass.Reportf(call.Pos(), "%s: handle it or thread it through the sticky Writer/Reader", what)
				return
			}
		}
		return
	}
	if isErrorType(t) {
		pass.Reportf(call.Pos(), "%s: handle it or thread it through the sticky Writer/Reader", what)
	}
}

// checkBlankErrorAssign flags `_ = f()` and `x, _ := f()` where the
// blanked value is an error.
func checkBlankErrorAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := pass.Info.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result assigned to blank: handle it or thread it through the sticky Writer/Reader")
			}
		}
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if _, isCall := as.Rhs[i].(*ast.CallExpr); isCall && isBlank(lhs) && isErrorType(pass.Info.TypeOf(as.Rhs[i])) {
			pass.Reportf(lhs.Pos(), "error result assigned to blank: handle it or thread it through the sticky Writer/Reader")
		}
	}
}

// isBlank reports whether expr is the blank identifier.
func isBlank(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "_"
}

// isErrorType reports whether t is assignable to the built-in error type.
func isErrorType(t types.Type) bool {
	return t != nil && types.AssignableTo(t, types.Universe.Lookup("error").Type())
}
