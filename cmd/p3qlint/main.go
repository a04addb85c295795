// Command p3qlint runs the determinism-linter suite (internal/lint) over
// packages of this module, from anywhere in the repository:
//
//	go run ./cmd/p3qlint ./...
//	go run ./cmd/p3qlint ./internal/core p3q/internal/sim
//
// Each finding prints as one `file:line:col: message [analyzer]` line.
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"fmt"
	"os"
	"strings"

	"p3q/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 || strings.HasPrefix(patterns[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: p3qlint <packages>   (e.g. p3qlint ./...)")
		os.Exit(2)
	}
	findings, err := lint.Lint(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p3qlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
