package p3q_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocReferencesExist keeps the docs honest: every ./cmd/<name> and
// ./examples/<name> path and <NAME>.md file named in the build files,
// ARCHITECTURE.md, examples/README.md, the verify skill or a Go file must
// exist, relative to the repository root or to the file naming it.
// CHANGES.md and ROADMAP.md are history and are not scanned.
func TestDocReferencesExist(t *testing.T) {
	ref := regexp.MustCompile(`\./(?:cmd|examples)/[a-z0-9]+|[\w./-]*\b[A-Z][A-Z_]+\.md\b`)
	files, _ := filepath.Glob(".github/workflows/*.yml")
	files = append(files, "Makefile", "ARCHITECTURE.md", "examples/README.md", ".claude/skills/verify/SKILL.md")
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return err
	})
	for _, f := range files {
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
}
