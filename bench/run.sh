#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source and run
# it with the caller's arguments. Everything the build leaves behind —
# binary, compiler cache, temporary files — stays in .bench_build/ at the
# root of the checkout; the harness itself writes only under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
go build -C bench -o "$build/sgmr-bench" .
exec "$build/sgmr-bench" "$@"
