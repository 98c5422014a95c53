#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the build
# and the run write inside the checkout it was started from: the Go caches and
# the binary under .bench_build, the logs under .bench_build/run-*.
# Usage, from the repository root: bash benchmark/run.sh [flags]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
