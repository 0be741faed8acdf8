#!/usr/bin/env bash
# Builds bench/gwbench from source and runs it with the arguments given.
# Everything the toolchain and the benchmark write — build cache, binary,
# spill files, block replicas — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/gwbench" ./gwbench)
cd "$root"
exec "$build/gwbench" -scratch "$build" "$@"
