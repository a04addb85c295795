package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/figures from the current runners")

// TestFiguresGolden pins every registered figure byte for byte at tinyCfg:
// testdata/figures/<name>.csv is exactly what
//
//	p3qsim -exp <name> -csv -users 150 -s 20 -k 10 -mean-items 20 -queries 40 -cycles 10 -seed 7
//
// prints. A change that moves a paper figure shows as a diff of those
// files; a deliberate one regenerates them with
//
//	go test ./internal/experiments -run TestFiguresGolden -update-golden
//
// Workers is 0 (all cores), so `-cpu 1,4` checks two shard counts.
func TestFiguresGolden(t *testing.T) {
	for _, r := range Registry() {
		t.Run(r.Name, func(t *testing.T) {
			var got bytes.Buffer
			for _, tb := range r.Run(tinyCfg()) {
				if err := tb.TitledCSV(&got); err != nil {
					t.Fatal(err)
				}
				got.WriteByte('\n')
			}
			path := filepath.Join("testdata", "figures", r.Name+".csv")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden unreadable (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s moved:\n%s", path, firstLineDiff(string(want), got.String()))
			}
		})
	}
}

// firstLineDiff names the first line where got departs from want.
func firstLineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, wl, gl)
		}
	}
	return "(same lines, different bytes)"
}
