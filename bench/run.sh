#!/usr/bin/env bash
# Builds the engine-path benchmark from source and runs it. Run it from
# the repository root; every flag is passed through to the benchmark:
#
#   bash bench/run.sh --workload filter_cascade --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the run's output files all live
# under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C bench build -o "$build/qurk-enginebench" .
exec "$build/qurk-enginebench" "$@"
