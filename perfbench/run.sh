#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, journals and traces.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/perfbench" --out "$build" --commit "$commit" "$@"
