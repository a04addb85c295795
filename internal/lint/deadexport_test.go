package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// interfaceMethods lists the methods the program reaches only through an
// interface, so no call site names them: each row is a method name and the
// interface it satisfies. A method of internal/ is excused by a row only
// when its receiver type implements that interface.
var interfaceMethods = []struct{ method, iface string }{
	{"WireType", "p3q/internal/wire.Msg"},
	{"String", "fmt.Stringer"},
	{"Import", "go/types.Importer"},
	{"Int63", "math/rand.Source"},
	{"Seed", "math/rand.Source"},
	{"Dial", "p3q/internal/peer.Transport"},
	{"Listen", "p3q/internal/peer.Transport"},
	{"Accept", "net.Listener"},
	{"Addr", "net.Listener"},
	{"Close", "net.Listener"},
	{"Network", "net.Addr"},
	{"Write", "net.Conn"},
}

// TestEveryExportedFuncHasACaller fails on an exported function or method
// of internal/ that no non-test file of the module uses: code that is kept
// and never runs. Test-only helpers belong in _test.go files. Two kinds of
// method are excused: those on a type p3q.go re-exports, which are the
// library's API, and those listed in interfaceMethods.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	l, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loadPatterns(l, module+"/...")
	if err != nil {
		t.Fatal(err)
	}

	// The exported functions and methods declared in internal/.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, module+"/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls[pkg.Info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}

	// Drop every one a non-test file uses outside its own body.
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd, ok := decls[fn]; ok && (id.Pos() < fd.Pos() || id.Pos() >= fd.End()) {
				delete(decls, fn)
			}
		}
	}

	api := map[*types.TypeName]bool{}
	root, err := l.load(module)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range root.Types.Scope().Names() {
		if tn, ok := root.Types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if obj := namedObj(tn.Type()); obj != nil {
				api[obj] = true
			}
		}
	}
	ifaces := make([]*types.Interface, len(interfaceMethods))
	for i, row := range interfaceMethods {
		dot := strings.LastIndex(row.iface, ".")
		p, err := l.Import(row.iface[:dot])
		if err != nil {
			t.Fatal(err)
		}
		tn, _ := p.Scope().Lookup(row.iface[dot+1:]).(*types.TypeName)
		if tn == nil || !types.IsInterface(tn.Type()) {
			t.Fatalf("interfaceMethods: %s is no interface", row.iface)
		}
		ifaces[i] = tn.Type().Underlying().(*types.Interface)
	}
	excuses := make([]int, len(interfaceMethods))

	var dead []string
	for fn := range decls {
		if recv := fn.Signature().Recv(); recv != nil {
			obj := namedObj(recv.Type())
			if api[obj] {
				continue
			}
			excused := false
			for i, row := range interfaceMethods {
				if row.method == fn.Name() && (types.Implements(obj.Type(), ifaces[i]) || types.Implements(types.NewPointer(obj.Type()), ifaces[i])) {
					excuses[i]++
					excused = true
				}
			}
			if excused {
				continue
			}
		}
		dead = append(dead, fmt.Sprintf("%s: %s", l.fset.Position(fn.Pos()), strings.TrimPrefix(fn.FullName(), module+"/internal/")))
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or move it into a _test.go file", d)
	}
	for i, row := range interfaceMethods {
		if excuses[i] == 0 {
			t.Errorf("interfaceMethods: {%q, %q} excuses no method", row.method, row.iface)
		}
	}
}
