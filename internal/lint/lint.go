// Package lint is the p3qlint determinism-linter suite: seven static
// analyzers that enforce, at lint time, the ordering, clock, phase,
// telemetry, allocation and checkpoint contracts ARCHITECTURE.md otherwise
// states only in prose. The dynamic half of the safety net — the
// Workers=1-vs-N fingerprint tests, the goldens and the
// resume-equals-uninterrupted checkpoint tests — catches a determinism
// violation only after it is written and only on an exercised path; each
// analyzer here is kept because a hand mutation of production code showed
// it catching something no test catches.
//
// The analyzers:
//
//   - maporder: no `range` over a map inside the deterministic engine
//     packages, unless annotated `//p3q:orderinvariant <reason>` (for
//     provably commutative loop bodies).
//   - wallclock: no time.Now/Since/Sleep and no global math/rand or
//     crypto/rand in the deterministic packages; use the virtual clock,
//     internal/randx split streams, and internal/hostclock for profiling.
//   - stickyerr: the codec packages (internal/binio and the checkpoint,
//     trace and wire formats on it) discard no error results.
//   - phasepurity: functions annotated `//p3q:phase plan` (run
//     concurrently against cycle-start state) may not write through an
//     Engine-typed value; functions called from the
//     forEachIndex/forEachNode/commitSharded worker closures must carry a
//     matching `//p3q:phase plan|commit` annotation.
//   - snapshotcomplete: every field of a checkpointed struct (see
//     checkpointedTypes) must be referenced on both the Snapshot and the
//     Restore path, or carry `//p3q:transient <reason>`.
//   - hotalloc: inside functions annotated `//p3q:hotpath`, allocating
//     constructs (map/slice literals, make/new, fmt calls, string
//     concatenation, interface boxing) are flagged unless excused by
//     `//p3q:alloc <reason>`.
//   - obspurity: host-plane telemetry values (anything rooted in
//     internal/hostclock or in a `//p3q:hostplane <reason>` field or
//     function) may not be written into unannotated state, steer engine
//     control flow, escape as unannotated returns, or enter the sim
//     plane of the obs registry (Inc/Add/Event/AddShardIntent).
//
// The //p3q: directive grammar has one home, directives.go: one table row
// per verb, and one validation pass that reports unknown, out-of-scope,
// reasonless and stale directives after the analyzers have run.
//
// Run the suite with `make lint` (`go run ./cmd/p3qlint ./...`).
package lint

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// module is the import path of the module the suite lints.
const module = "p3q"

// DeterministicScopes lists the package paths (each covering its subtree)
// under the byte-for-byte determinism contract: everything that executes
// between a seed and an engine fingerprint. maporder, wallclock,
// phasepurity and obspurity only report inside these scopes.
var DeterministicScopes = []string{
	"p3q/internal/core",
	"p3q/internal/gossip",
	"p3q/internal/sim",
	"p3q/internal/experiments",
	"p3q/internal/checkpoint",
	"p3q/internal/binio",
}

// HotpathScopes lists the packages where //p3q:hotpath and //p3q:alloc
// are recognized and hotalloc reports: the deterministic engine scopes
// plus the leaf packages whose helpers the engine's plan/commit inner
// loops call directly (randx samplers, tagging digests and profile
// columns, the bloom probe, the querier's NRA round, the idtab table under
// the personal-network index, the evaluated memo and the NRA item index).
// Those leaves are not under the full determinism lint set — randx
// legitimately wraps math/rand, tagging sorts its own memos — but their hot
// helpers carry the same allocation budget as their callers.
var HotpathScopes = append([]string{
	"p3q/internal/randx",
	"p3q/internal/tagging",
	"p3q/internal/bloom",
	"p3q/internal/topk",
	"p3q/internal/idtab",
}, DeterministicScopes...)

// CodecScopes lists the packages under the sticky-error codec discipline
// enforced by stickyerr.
var CodecScopes = []string{
	"p3q/internal/binio",
	"p3q/internal/checkpoint",
	"p3q/internal/trace",
	"p3q/internal/wire",
}

// SnapshotScopes lists the packages that define checkpointed state:
// snapshotcomplete checks struct-field codec coverage there, and the
// //p3q:transient verb is only recognized there.
var SnapshotScopes = []string{
	"p3q/internal/core",
	"p3q/internal/sim",
	"p3q/internal/randx",
}

// inScope reports whether pkg path is one of the scopes or below one.
func inScope(path string, scopes []string) bool {
	for _, s := range scopes {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// An Analyzer is one named check, run once per package.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// Analyzers returns the full p3qlint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, WallClock, StickyErr, PhasePurity, SnapshotComplete, HotAlloc, Obspurity}
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	*Package
	directives *directiveIndex
	report     func(token.Pos, string)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Finding is one diagnostic located in a file, ready for printing.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String renders the finding as `file:line:col: message [analyzer]`, the
// line the CI problem matcher reads.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Check runs the analyzers over the packages, then validates every //p3q:
// directive owned by one of them, and returns all findings sorted by file,
// line, column, and analyzer name.
func Check(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	reporter := func(pkg *Package, analyzer string) func(token.Pos, string) {
		return func(pos token.Pos, msg string) {
			p := pkg.Fset.Position(pos)
			findings = append(findings, Finding{analyzer, p.Filename, p.Line, p.Column, msg})
		}
	}
	for _, pkg := range pkgs {
		idx := indexDirectives(pkg)
		ran := map[string]bool{}
		for _, a := range analyzers {
			a.Run(&Pass{Package: pkg, directives: idx, report: reporter(pkg, a.Name)})
			ran[a.Name] = true
		}
		idx.validate(pkg.Path, func(owner string, pos token.Pos, msg string) {
			if ran[owner] {
				reporter(pkg, owner)(pos, msg)
			}
		})
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col), strings.Compare(a.Analyzer, b.Analyzer))
	})
	return findings
}

// Lint is the suite's one entry point, shared by cmd/p3qlint and
// TestRepoLintClean: it expands go-tool package patterns (./..., ./dir,
// import paths) with `go list` in the current directory, loads and
// type-checks the packages, runs every analyzer, and returns the findings
// with file names relative to the module root.
func Lint(patterns ...string) ([]Finding, error) {
	dir, err := moduleDir()
	if err != nil {
		return nil, err
	}
	return lintWith(newLoader(root{module, dir}), dir, patterns...)
}

// lintWith is Lint through a given loader. A loader caches what it loads,
// so the tests run the repository and the fixtures through one.
func lintWith(l *loader, dir string, patterns ...string) ([]Finding, error) {
	pkgs, err := loadPatterns(l, patterns...)
	if err != nil {
		return nil, err
	}
	findings := Check(pkgs, Analyzers())
	for i, f := range findings {
		if rel, err := filepath.Rel(dir, f.File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}
	return findings, nil
}

// loadPatterns expands go-tool package patterns with `go list` in the
// current directory and loads every package that has non-test Go files.
func loadPatterns(l *loader, patterns ...string) ([]*Package, error) {
	paths, err := goList(append([]string{"-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// moduleDir returns the root directory of the enclosing module.
func moduleDir() (string, error) {
	out, err := goList("-m", "-f", "{{.Dir}}")
	if err != nil {
		return "", err
	}
	if len(out) != 1 {
		return "", fmt.Errorf("go list -m: want one module directory, got %q", out)
	}
	return out[0], nil
}

// goList runs `go list` with args and returns its output lines, blank
// ones dropped.
func goList(args ...string) ([]string, error) {
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		return nil, fmt.Errorf("go list: %s", bytes.TrimSpace(ee.Stderr))
	}
	if err != nil {
		return nil, err
	}
	return strings.FieldsFunc(string(out), func(r rune) bool { return r == '\n' || r == '\r' }), nil
}

// typeString renders a type compactly for diagnostics: the reader is
// inside the repo already, so p3q-internal names lose their prefix.
func typeString(t types.Type) string {
	return strings.ReplaceAll(t.String(), "p3q/internal/", "")
}

// namedObj returns the declaration of t's named type, looking through
// aliases and one pointer, or nil when t is not a named type of some
// package.
func namedObj(t types.Type) *types.TypeName {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj()
	}
	return nil
}

// calleeIdent returns the identifier naming a call's function — f in f()
// and in x.f() — or nil for any other callee expression.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}
