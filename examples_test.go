package p3q_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite examples/<name>/output.golden from each example's stdout")

// TestExamplesGolden builds every program under examples/ with one go
// build, runs each, and compares its stdout with the committed
// examples/<name>/output.golden. The examples print no wall-clock figure on
// stdout, so the output is the same on every run and for every worker
// count. After a deliberate change, regenerate with
// `go test -run TestExamplesGolden -update .` and review the diff.
func TestExamplesGolden(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, main := range mains {
		dir := filepath.Dir(main)
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			run := exec.Command(filepath.Join(bin, name))
			run.Stdout, run.Stderr = &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			golden := filepath.Join(dir, "output.golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			got, wantLines := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < max(len(got), len(wantLines)); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Fatalf("%s:%d differs:\n got  %q\n want %q", golden, i+1, g, w)
				}
			}
		})
	}
}
