#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload live-direct --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory.
set -euo pipefail
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build_dir="$PWD/.bench_build"
mkdir -p "$build_dir"
export GOCACHE="$build_dir/gocache" GOPATH="$build_dir/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
(cd "$bench_dir" && go build -o "$build_dir/servebench" .)
exec "$build_dir/servebench" "$@"
