#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout and
# runs it; everything the build and the run write stays inside the
# checkout. Run from the repo root: bash benchmarks/run.sh --workload ...
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
  GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
bin="$build/benchmarks"
# Rebuild when a Go file of the module or of the benchmark is newer than
# the binary; the engine is built from this checkout's source.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name 'go.mod' \) -newer "$bin" -print -quit)" ]; then
  go -C "$root/benchmarks" build -o "$bin" .
fi
exec "$bin" "$@"
