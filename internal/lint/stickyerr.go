package lint

import (
	"go/ast"
	"go/types"

	"p3q/internal/lint/analysis"
)

// StickyErr enforces the codec discipline of the binary formats (trace,
// checkpoint, wire) and of the carrier under them. The formats are
// validated streams: a single unobserved short write or read
// desynchronizes every later field, so (1) no call whose results include
// an error may have that error discarded — not as a bare statement, not
// deferred, not assigned to blank — and (2) raw stream primitives
// (bufio/os/io reads and writes) may only be touched inside
// internal/binio, whose Writer/Reader record the first failure and turn
// every later operation into a no-op. The formats go through its typed
// accessors.
var StickyErr = &analysis.Analyzer{
	Name: "stickyerr",
	Doc:  "forbid discarded errors in the codec packages and raw stream I/O outside internal/binio",
	Run:  runStickyErr,
}

// rawIOFuncs are package-level stream primitives (package path -> names).
var rawIOFuncs = map[string]map[string]bool{
	"io": {
		"ReadFull": true, "ReadAtLeast": true, "ReadAll": true,
		"Copy": true, "CopyN": true, "WriteString": true,
	},
}

// rawIOMethodPkgs are the packages whose Read/Write-family methods count
// as raw stream access when called on their types.
var rawIOMethodPkgs = map[string]bool{"bufio": true, "io": true, "os": true}

// rawIOMethods are the method names that move bytes on a stream.
var rawIOMethods = map[string]bool{
	"Read": true, "Write": true, "ReadByte": true, "WriteByte": true,
	"ReadString": true, "WriteString": true, "ReadBytes": true,
	"ReadRune": true, "WriteRune": true, "Flush": true,
}

func runStickyErr(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path(), CodecScopes) {
		return nil
	}
	carrier := inScope(pass.Pkg.Path(), []string{CarrierScope})
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
				case *ast.CallExpr:
					if !carrier && isRawIOCall(pass, n) {
						pass.Reportf(n.Pos(), "raw stream I/O outside internal/binio: read and write through a binio.Reader/Writer so failures stay sticky")
					}
				}
				return true
			})
		}
	}
	return nil
}

// reportDroppedError flags call when its result tuple contains an error.
func reportDroppedError(pass *analysis.Pass, call *ast.CallExpr, what string) {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				pass.Reportf(call.Pos(), "%s: handle it or thread it through the sticky Writer/Reader", what)
				return
			}
		}
		return
	}
	if isErrorType(tv.Type) {
		pass.Reportf(call.Pos(), "%s: handle it or thread it through the sticky Writer/Reader", what)
	}
}

// checkBlankErrorAssign flags `_ = f()` and `x, _ := f()` where the
// blanked value is an error.
func checkBlankErrorAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := pass.TypesInfo.Types[call].Type.(*types.Tuple)
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
		call, ok := as.Rhs[i].(*ast.CallExpr)
		if !ok || !isBlank(lhs) {
			continue
		}
		tv, ok := pass.TypesInfo.Types[call]
		if ok && tv.Type != nil && isErrorType(tv.Type) {
			pass.Reportf(lhs.Pos(), "error result assigned to blank: handle it or thread it through the sticky Writer/Reader")
		}
	}
}

// isRawIOCall reports whether call is a raw stream primitive: a package
// function from rawIOFuncs, or a Read/Write-family method on a bufio, io,
// or os type.
func isRawIOCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			names := rawIOFuncs[pkgName.Imported().Path()]
			return names != nil && names[sel.Sel.Name]
		}
	}
	if !rawIOMethods[sel.Sel.Name] {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	t := selection.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && rawIOMethodPkgs[obj.Pkg().Path()]
}

// isBlank reports whether expr is the blank identifier.
func isBlank(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "_"
}

// isErrorType reports whether t is assignable to the built-in error type.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	return types.AssignableTo(t, errType)
}
