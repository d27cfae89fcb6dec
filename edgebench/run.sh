#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash edgebench/run.sh --workload local-batched-512 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact (Go build cache,
# temporary files, the binary) and every trace stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

bin="$build/edgebench"
tmp="$bin.$$"
(cd "$root/edgebench" && go build -o "$tmp" .)
mv -f "$tmp" "$bin"
exec "$bin" "$@"
