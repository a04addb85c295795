#!/bin/sh
# Entry point of the regression driver (BENCHMARK.json's command), run from
# the root of a checkout: builds the harness from source with every build
# output, the go build cache included, kept inside the checkout, then
# becomes the harness. Developers can simply `go run ./bench`.
set -e
mkdir -p .bench_build
GOCACHE="$PWD/.bench_build/go-cache"
export GOCACHE
go build -o .bench_build/p3q-bench ./bench
exec .bench_build/p3q-bench "$@"
