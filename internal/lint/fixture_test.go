package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture harness runs Check — the same function the driver runs —
// over fixture packages under testdata/src and matches the findings
// against expectations written in the fixture sources, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//	time.Now() // want "reads the host clock"
//
// declares that a finding matching the regular expression is expected on
// that line; several quoted patterns declare several findings. Because a
// //p3q: directive comment occupies its entire line, an expectation for a
// finding anchored at the directive itself is written on the following
// line as
//
//	//p3q:orderinvariant
//	// want-above "missing a reason"
//
// Fixture import paths resolve against testdata/src first and the module
// second, so fixtures may live under real engine package paths (where the
// analyzers are in scope) and still import real packages like
// p3q/internal/randx. One loader serves every fixture, so the standard
// library is type-checked once per test binary.

var (
	wantRE   = regexp.MustCompile(`// want(-above)?((?:\s+"(?:[^"\\]|\\.)*")+)`)
	quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

	fixtureLoader = sync.OnceValues(func() (*loader, error) {
		dir, err := moduleDir()
		return newLoader(root{dir: filepath.Join("testdata", "src")}, root{module, dir}), err
	})
)

// expectation is one expected finding.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// runFixtures checks the analyzers' findings on each fixture package
// against its // want expectations.
func runFixtures(t *testing.T, analyzers []*Analyzer, paths ...string) {
	t.Helper()
	l, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		expects := parseExpectations(t, pkg)
	findings:
		for _, f := range Check([]*Package{pkg}, analyzers) {
			for _, e := range expects {
				if !e.matched && e.file == f.File && e.line == f.Line && e.pattern.MatchString(f.Message) {
					e.matched = true
					continue findings
				}
			}
			t.Errorf("unexpected finding: %s", f)
		}
		for _, e := range expects {
			if !e.matched {
				t.Errorf("%s:%d: expected finding matching %q, got none", e.file, e.line, e.pattern)
			}
		}
	}
}

// parseExpectations scans the fixture sources for // want comments. It
// reads the raw file bytes rather than the AST so that expectations work
// inside directive comments and on any line.
func parseExpectations(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, raw := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(raw)
			if m == nil {
				continue
			}
			line := i + 1
			if m[1] == "-above" {
				line--
			}
			for _, q := range quotedRE.FindAllString(m[2], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %s: %v", name, i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, pat, err)
				}
				out = append(out, &expectation{file: name, line: line, pattern: re})
			}
		}
	}
	return out
}
