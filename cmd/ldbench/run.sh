#!/usr/bin/env bash
# BENCHMARK.json's command: build ldbench from source and run it, keeping
# everything the build and the run write (Go's build cache included)
# under .bench_build/ in the checkout it is started from.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
go build -o "$build/bin/ldbench" ./cmd/ldbench
exec "$build/bin/ldbench" "$@"
