#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through, e.g.
#
#   bash benchmark/run.sh --workload clip-clean --seed 1 --seconds 16 --trace 0
#
# The Go build cache, temporary files and binaries all stay under
# .bench_build at the repository root, and no module is downloaded.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go -C "$root/benchmark" build -o "$build/bin/benchmark" .
cd "$root"
exec "$build/bin/benchmark" "$@"
