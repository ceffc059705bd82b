#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes through.
# Run from the root of a checkout: bash benchmark/run.sh --workload dense_cold
# Build output, the Go build cache and temporary files all stay in
# .bench_build under the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/distme-benchmark" .)
exec "$build/distme-benchmark" "$@"
