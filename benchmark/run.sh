#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from this checkout
# and runs it with the arguments given (--workload, --seed, --seconds,
# --trace). Everything the Go toolchain writes — build cache, temporary
# files, the harness binary — stays under .bench_build in the checkout; the
# harness itself writes under benchmark/out. Run from anywhere; `go run
# ./benchmark` from the repository root does the same with your own caches.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS="-buildvcs=false"
go build -o "$build/rudolf-bench" ./benchmark
exec "$build/rudolf-bench" "$@"
