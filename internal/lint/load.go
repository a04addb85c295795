package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File // sorted by file name
	Types *types.Package
	Info  *types.Info
}

// root maps import paths to source directories: with module set, the
// module path and every path below it to dir (module/x/y -> dir/x/y);
// with module empty, any path p to dir/p, the layout of a testdata/src
// fixture tree.
type root struct{ module, dir string }

func (r root) resolve(path string) (string, bool) {
	if r.module == "" {
		return filepath.Join(r.dir, filepath.FromSlash(path)), true
	}
	if path == r.module {
		return r.dir, true
	}
	if rest, ok := strings.CutPrefix(path, r.module+"/"); ok {
		return filepath.Join(r.dir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// errNotLocal marks an import path no root provides.
var errNotLocal = errors.New("no root provides it")

// loader type-checks packages from source without the go/packages
// machinery, which lives in golang.org/x/tools and is unavailable here.
// Local import paths resolve against the roots in order — the fixture
// harness registers its testdata tree ahead of the module, so a fixture
// package can shadow a real path while still importing real sibling
// packages — and everything else (the standard library) goes to the
// compiler's source importer, which works offline from GOROOT. A loader
// caches what it loads and implements types.Importer, so loaded packages
// import each other.
type loader struct {
	fset  *token.FileSet
	roots []root
	std   types.Importer
	pkgs  map[string]*Package // nil while the package is being checked
}

func newLoader(roots ...root) *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, roots: roots, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*Package{}}
}

// load returns the type-checked package for an import path, loading it
// (and its local dependencies) on first use.
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("load: import cycle through %q", path)
		}
		return p, nil
	}
	// The first root claiming a directory with buildable non-test Go
	// files (for the current tags, GOOS and GOARCH) wins.
	var bp *build.Package
	for _, r := range l.roots {
		if dir, ok := r.resolve(path); ok {
			if p, err := build.ImportDir(dir, 0); err == nil && len(p.GoFiles) > 0 {
				bp = p
				break
			}
		}
	}
	if bp == nil {
		return nil, fmt.Errorf("load: package %q: %w", path, errNotLocal)
	}
	l.pkgs[path] = nil
	p, err := l.check(path, bp)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *loader) check(path string, bp *build.Package) (*Package, error) {
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// Import implements types.Importer: local paths load through this loader,
// everything else falls through to the standard library source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	p, err := l.load(path)
	if errors.Is(err, errNotLocal) {
		return l.std.Import(path)
	}
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}
