#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash servebench/run.sh --workload hot-hits --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under the build directory ($CARGO_TARGET_DIR, else .bench_build).
set -euo pipefail

build_dir="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build_dir"
build_dir="$(cd "$build_dir" && pwd)"

export GOCACHE="$build_dir/gocache"
export GOMODCACHE="$build_dir/gomodcache"
export GOPATH="$build_dir/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=mod
export GOENV=off

go -C servebench build -o "$build_dir/servebench" .
exec "$build_dir/servebench" -workdir "$build_dir" "$@"
