// Command p3qlint runs the determinism-linter suite (internal/lint) over
// packages of this module, from anywhere in the repository:
//
//	go run ./cmd/p3qlint ./...
//	go run ./cmd/p3qlint ./internal/core p3q/internal/sim
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"p3q/internal/lint"
	"p3q/internal/lint/load"
)

const module = "p3q"

// jsonFinding is the -json output record: one object per line (JSON
// Lines), stable field names for editor and CI integrations.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	args := os.Args[1:]
	jsonOut := false
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		if args[0] != "-json" {
			fmt.Fprintf(os.Stderr, "p3qlint: unknown flag %s\n", args[0])
			os.Exit(2)
		}
		jsonOut = true
		args = args[1:]
	}
	os.Exit(run(args, jsonOut))
}

// run expands the package patterns against the enclosing module,
// loads and type-checks them with the offline loader, and prints findings —
// one `file:line:col: message [analyzer]` line each, or with jsonOut one
// JSON object per line (machine-readable, for editors and CI annotators).
func run(patterns []string, jsonOut bool) int {
	if len(patterns) == 0 {
		fmt.Fprintln(os.Stderr, "usage: p3qlint [-json] <packages>   (e.g. p3qlint ./...)")
		return 2
	}
	root, err := load.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "p3qlint: %v\n", err)
		return 2
	}
	paths, err := expand(root, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p3qlint: %v\n", err)
		return 2
	}
	loader := load.New(load.ModuleRoot(module, root))
	var pkgs []*load.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p3qlint: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := lint.Check(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "p3qlint: %v\n", err)
		return 2
	}
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		rel := f.File
		if r, err := filepath.Rel(root, f.File); err == nil && !strings.HasPrefix(r, "..") {
			rel = r
		}
		if jsonOut {
			if err := enc.Encode(jsonFinding{File: rel, Line: f.Line, Col: f.Col, Analyzer: f.Analyzer, Message: f.Message}); err != nil {
				fmt.Fprintf(os.Stderr, "p3qlint: %v\n", err)
				return 2
			}
			continue
		}
		fmt.Printf("%s:%d:%d: %s [%s]\n", rel, f.Line, f.Col, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// expand resolves go-tool-style package patterns (./..., ./dir, import
// paths) to module import paths, preserving order and deduplicating.
func expand(root string, patterns []string) ([]string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	// relImport maps a filesystem-relative pattern ("./x") to an import
	// path by locating it inside the module tree.
	relImport := func(rel string) (string, error) {
		abs, err := filepath.Abs(filepath.Join(cwd, rel))
		if err != nil {
			return "", err
		}
		r, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(r, "..") {
			return "", fmt.Errorf("pattern %q is outside module %s", rel, module)
		}
		if r == "." {
			return module, nil
		}
		return module + "/" + filepath.ToSlash(r), nil
	}

	seen := map[string]bool{}
	var out []string
	add := func(paths ...string) {
		for _, p := range paths {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			var prefix string
			if base == "." || strings.HasPrefix(base, "./") {
				prefix, err = relImport(base)
			} else {
				prefix = base
			}
			if err != nil {
				return nil, err
			}
			all, err := load.List(module, root)
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
				}
			}
		case pat == "." || strings.HasPrefix(pat, "./"):
			p, err := relImport(pat)
			if err != nil {
				return nil, err
			}
			add(p)
		default:
			add(pat)
		}
	}
	return out, nil
}
