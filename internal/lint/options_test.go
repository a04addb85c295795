package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// optionTypes are the option structs of the program: the configurations a
// caller fills in.
var optionTypes = []string{
	"p3q/internal/core.Config",
	"p3q/internal/trace.GenParams",
	"p3q/internal/trace.ChangeParams",
	"p3q/internal/experiments.Config",
	"p3q/internal/peer.Config",
}

// unsetOptions lists the option fields no non-test file assigns that stay
// options anyway, each with its reason. Every row must excuse a field.
var unsetOptions = []struct{ field, reason string }{
	{"core.Config.R", "bench/probes.go reads cfg.R, and the benchmark's directory is frozen"},
	{"trace.GenParams.Users", "set through DefaultGenParams's argument"},
	{"trace.ChangeParams.FracUsers", "tests pin golden_checkpoint.bin and syncGoldenFingerprint on their own change-sets"},
	{"trace.ChangeParams.MeanNew", "tests pin golden_checkpoint.bin and syncGoldenFingerprint on their own change-sets"},
	{"trace.ChangeParams.SigmaNew", "tests pin golden_checkpoint.bin and syncGoldenFingerprint on their own change-sets"},
	{"trace.ChangeParams.MaxNew", "tests pin golden_checkpoint.bin and syncGoldenFingerprint on their own change-sets"},
}

// TestEveryOptionIsSet fails on a field of an option struct that no
// non-test file of the module sets to anything but its default: a knob
// with one value is a constant. A field counts as set when a non-test file
// assigns it (a selector on the left of an assignment) or names it as a
// key of a composite literal. Two places only give it the one value and do
// not count: the type's own Default* function, and a function clamping its
// own by-value copy of the options (core's Config.sanitize).
func TestEveryOptionIsSet(t *testing.T) {
	l, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loadPatterns(l, module+"/...")
	if err != nil {
		t.Fatal(err)
	}

	// The fields of each option struct, named by package, type and field.
	fields := map[*types.Var]string{}
	owners := map[*types.TypeName]bool{}
	for _, name := range optionTypes {
		dot := strings.LastIndex(name, ".")
		p, err := l.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		tn, _ := p.Scope().Lookup(name[dot+1:]).(*types.TypeName)
		st, ok := types.Unalias(tn.Type()).Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("optionTypes: %s is no struct", name)
		}
		owners[tn] = true
		short := strings.TrimPrefix(name, module+"/internal/")
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = short + "." + st.Field(i).Name()
		}
	}

	// Drop every field some non-test file sets outside its type's own
	// defaulting functions.
	set := func(info *types.Info, id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok {
			delete(fields, v)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if ok && defaultsOption(pkg.Info, fd, owners) {
					continue
				}
				var copies map[types.Object]bool
				if ok {
					copies = optionCopies(pkg.Info, fd, owners)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							sel, ok := lhs.(*ast.SelectorExpr)
							if !ok {
								continue
							}
							if base, ok := sel.X.(*ast.Ident); ok && copies[pkg.Info.Uses[base]] {
								continue
							}
							set(pkg.Info, sel.Sel)
						}
					case *ast.KeyValueExpr:
						if key, ok := n.Key.(*ast.Ident); ok {
							set(pkg.Info, key)
						}
					}
					return true
				})
			}
		}
	}

	var unset []string
	for _, name := range fields {
		unset = append(unset, name)
	}
	slices.Sort(unset)
	excuses := make([]int, len(unsetOptions))
	for _, name := range unset {
		i := slices.IndexFunc(unsetOptions, func(row struct{ field, reason string }) bool { return row.field == name })
		if i < 0 {
			t.Errorf("%s is never set outside tests: make it a constant, or set it where it matters", name)
			continue
		}
		excuses[i]++
	}
	for i, row := range unsetOptions {
		if excuses[i] == 0 {
			t.Errorf("unsetOptions: %s excuses no field", row.field)
		}
	}
}

// defaultsOption reports whether fd is an option type's own Default*
// function: one that returns the type.
func defaultsOption(info *types.Info, fd *ast.FuncDecl, owners map[*types.TypeName]bool) bool {
	if !strings.HasPrefix(fd.Name.Name, "Default") {
		return false
	}
	sig := info.Defs[fd.Name].(*types.Func).Signature()
	for i := 0; i < sig.Results().Len(); i++ {
		if owners[namedObj(sig.Results().At(i).Type())] {
			return true
		}
	}
	return false
}

// optionCopies returns fd's by-value parameters and receiver of an option
// type: writing one of their fields clamps the function's own copy.
func optionCopies(info *types.Info, fd *ast.FuncDecl, owners map[*types.TypeName]bool) map[types.Object]bool {
	sig := info.Defs[fd.Name].(*types.Func).Signature()
	copies := map[types.Object]bool{}
	vars := []*types.Var{sig.Recv()}
	for i := 0; i < sig.Params().Len(); i++ {
		vars = append(vars, sig.Params().At(i))
	}
	for _, v := range vars {
		if v == nil {
			continue
		}
		if n, ok := types.Unalias(v.Type()).(*types.Named); ok && owners[n.Obj()] {
			copies[v] = true
		}
	}
	return copies
}
