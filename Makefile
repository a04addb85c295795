# Convenience targets for the p3q module. Everything here is a thin
# wrapper over the go tool; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: lint test build e2e loc

# lint runs the determinism-linter suite over every package of the module
# through lint.Lint (TestRepoLintClean runs the same body, lintWith, on
# the loader the lint tests share). CI runs it.
lint:
	go run ./cmd/p3qlint ./...

build:
	go build ./...

test:
	go test ./...

# e2e runs the process tier: real p3qd daemons on loopback TCP ports,
# driven through p3qctl. Gated behind the e2e build tag so the plain
# test target stays hermetic and fast (the in-process smoke and
# cross-check tiers already run there).
e2e:
	go test -tags e2e -run TestProcess -count 1 -v ./internal/e2e

# loc prints the non-test Go line count of every package, one line each,
# and the total: ROADMAP's "line count is a tracked metric" (CI puts it in
# the job summary). A package with test files only prints nothing: an
# empty file list would leave cat reading stdin.
loc:
	@go list -f '{{if .GoFiles}}{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}{{end}}' ./... | \
	while read pkg files; do printf '%6d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; done | \
	awk '{ print; total += $$1 } END { printf "%6d total\n", total }'
