# Convenience targets for the p3q module. Everything here is a thin
# wrapper over the go tool; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: lint test build e2e loc waivers

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

# waivers prints, per waiver verb, the number of //p3q: directives outside
# internal/lint (whose fixtures and docs spell them out): ROADMAP's waiver
# audit as a number (CI puts it in the job summary beside loc). A directive
# is a comment that starts with //p3q:, on its own line or behind code; a
# mention inside another comment does not count.
WAIVER_VERBS = alloc hostplane orderinvariant transient
waivers:
	@files=$$(find . -name '*.go' -not -path './internal/lint/*'); \
	for v in $(WAIVER_VERBS); do \
		printf '%6d %s\n' "$$(awk -v d="//p3q:$$v" '{ i = index($$0, "//") } i && substr($$0, i, length(d)) == d { n++ } END { print n + 0 }' $$files)" "$$v"; \
	done
