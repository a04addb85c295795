package p3q_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocReferencesExist keeps the docs honest: every ./cmd/<name> and
// ./examples/<name> path and <NAME>.md file named in the build files,
// ARCHITECTURE.md, examples/README.md, the verify skill or a Go file must
// exist, relative to the repository root or to the file naming it, and
// ARCHITECTURE.md's backticked Go names must name the source (see
// requireArchitectureNames). CHANGES.md and ROADMAP.md are history and are
// not scanned.
func TestDocReferencesExist(t *testing.T) {
	ref := regexp.MustCompile(`\./(?:cmd|examples)/[a-z0-9]+|[\w./-]*\b[A-Z][A-Z_]+\.md\b`)
	files, _ := filepath.Glob(".github/workflows/*.yml")
	files = append(files, "Makefile", "ARCHITECTURE.md", "examples/README.md", ".claude/skills/verify/SKILL.md")
	var goFiles []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
		}
		return err
	})
	for _, f := range append(files, goFiles...) {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllString(string(text), -1) {
			_, atRoot := os.Stat(m)
			_, beside := os.Stat(filepath.Join(filepath.Dir(f), m))
			if atRoot != nil && beside != nil {
				t.Errorf("%s names %s, which does not exist", f, m)
			}
		}
	}
	requireArchitectureNames(t, goFiles)
}

// archNotInSource are the backticked names of ARCHITECTURE.md that no Go
// file holds, each with its reason.
var archNotInSource = map[string]string{
	"mallocgc":    "a runtime function, named from a CPU profile",
	"memmove":     "a runtime function, named from a CPU profile",
	"staticcheck": "an external linter CI runs",
	"readX":       "stands for the checkpoint's family of readers (readNode, ...)",
	"writeX":      "stands for the checkpoint's family of writers (writeNode, ...)",
	"yml":         "the extension of a CI workflow file (fuzz.yml)",
	"_test.go":    "the suffix of every test file, not a file",
}

// requireArchitectureNames holds ARCHITECTURE.md to the source: a
// backticked Go identifier outside the fenced blocks (`Name`, `pkg.Name`,
// `Type.Method()`) must be a word of some other Go file — an identifier or
// a word of a comment — and a backticked *.go name must be a Go file of
// the module (a trailing part of its path is enough). So a deleted or
// renamed function fails by name instead of lingering in the prose.
func requireArchitectureNames(t *testing.T, goFiles []string) {
	word := regexp.MustCompile(`[A-Za-z_]\w*`)
	words := make(map[string]bool)
	var paths []string
	for _, f := range goFiles {
		if f == "docs_test.go" { // it spells out the exemptions
			continue
		}
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range word.FindAllString(string(text), -1) {
			words[w] = true
		}
		paths = append(paths, "/"+filepath.ToSlash(f))
	}
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	prose := regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```").ReplaceAllString(string(doc), "")
	ident := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?$`)
	goFile := regexp.MustCompile(`^[\w./-]+\.go$`)
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose, -1) {
		span := m[1]
		var missing []string
		switch {
		case goFile.MatchString(span):
			if !slices.ContainsFunc(paths, func(p string) bool { return strings.HasSuffix(p, "/"+span) }) {
				missing = append(missing, span)
			}
		case ident.MatchString(span):
			for _, w := range word.FindAllString(span, -1) {
				if !words[w] {
					missing = append(missing, w)
				}
			}
		}
		for _, w := range missing {
			if _, exempt := archNotInSource[w]; !exempt {
				t.Errorf("ARCHITECTURE.md names %s in `%s`, which no Go file holds", w, span)
			}
		}
	}
}
