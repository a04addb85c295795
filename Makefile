# Convenience targets for the p3q module. Everything here is a thin
# wrapper over the go tool; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: lint test build bench e2e loc

# lint runs the determinism-linter suite through both of its entry
# points: the standalone multichecker and the cmd/go unitchecker
# protocol behind go vet (which also exercises the export-data path).
lint:
	go run ./cmd/p3qlint ./...
	go build -o /tmp/p3qlint ./cmd/p3qlint
	go vet -vettool=/tmp/p3qlint ./...

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

bench:
	go test . -run='^$$' -bench='BenchmarkLazyConvergence5k|BenchmarkEagerBurst5k' -benchmem

# loc prints the non-test Go line count of every package, one line each,
# and the total: ROADMAP's "line count is a tracked metric" (CI puts it in
# the job summary next to the bench history).
loc:
	@go list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read pkg files; do printf '%6d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; done | \
	awk '{ print; total += $$1 } END { printf "%6d total\n", total }'
