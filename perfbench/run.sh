#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs and run data stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
