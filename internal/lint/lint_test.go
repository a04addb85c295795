package lint

import (
	"go/types"
	"testing"
)

// TestRepoLintClean runs the suite over every package of the module the
// way p3qlint's entry point, Lint, does (through the loader the fixtures
// share) and requires zero findings: the determinism contracts hold
// everywhere, and every //p3q: annotation in the tree is live and
// justified.
func TestRepoLintClean(t *testing.T) {
	l, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	dir, err := moduleDir()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lintWith(l, dir, module+"/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestScopesExist guards the scope lists against rot: a typoed scope or
// checkpointed type name would silently switch an analyzer off while
// TestRepoLintClean stays green.
func TestScopesExist(t *testing.T) {
	paths, err := goList("-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", module+"/...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]bool{}
	for _, p := range paths {
		pkgs[p] = true
	}
	for _, scopes := range [][]string{DeterministicScopes, HotpathScopes, CodecScopes, SnapshotScopes} {
		for _, s := range scopes {
			if !pkgs[s] {
				t.Errorf("scope %s names no package of the module", s)
			}
		}
	}
	l, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	for path, names := range checkpointedTypes {
		pkg, err := l.load(path)
		if err != nil {
			t.Errorf("checkpointedTypes: %v", err)
			continue
		}
		for _, name := range names {
			var st *types.Struct
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
				st, _ = tn.Type().Underlying().(*types.Struct)
			}
			if st == nil {
				t.Errorf("checkpointedTypes: %s declares no struct type %s", path, name)
			}
		}
	}
}

func TestWallClock(t *testing.T) {
	runFixtures(t, []*Analyzer{WallClock}, "p3q/internal/sim/wcfixture", "example.com/outside")
}

func TestStickyErr(t *testing.T) {
	runFixtures(t, []*Analyzer{StickyErr}, "p3q/internal/checkpoint/sefixture", "example.com/outside")
}

func TestMapOrder(t *testing.T) {
	runFixtures(t, []*Analyzer{MapOrder}, "p3q/internal/core/mofixture", "example.com/outside")
}

// TestMapOrderAnnotations proves the annotations are validated: a stale
// directive, a reasonless directive, and an unknown verb are themselves
// diagnosed rather than silently tolerated.
func TestMapOrderAnnotations(t *testing.T) {
	runFixtures(t, []*Analyzer{MapOrder}, "p3q/internal/core/annfixture")
}

// TestScopedVerbsOutsideScope proves every scoped verb used from the wrong
// package is rejected as unknown there, under its owning analyzer, so no
// directive can silently assert nothing from an out-of-scope package.
func TestScopedVerbsOutsideScope(t *testing.T) {
	runFixtures(t, Analyzers(), "example.com/outsideverbs")
}

func TestHotAlloc(t *testing.T) {
	runFixtures(t, []*Analyzer{HotAlloc}, "p3q/internal/core/hafixture")
}

// TestPhasePurity runs maporder beside phasepurity: the commit-phase map
// loop of the fixture is maporder's finding.
func TestPhasePurity(t *testing.T) {
	runFixtures(t, []*Analyzer{PhasePurity, MapOrder}, "p3q/internal/core/ppfixture")
}

func TestSnapshotComplete(t *testing.T) {
	runFixtures(t, []*Analyzer{SnapshotComplete}, "p3q/internal/core/scfixture")
}

func TestObspurity(t *testing.T) {
	runFixtures(t, []*Analyzer{Obspurity}, "p3q/internal/core/opfixture")
}
