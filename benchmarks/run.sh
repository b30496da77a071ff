#!/usr/bin/env bash
# Builds rasqld and the benchmark from the sources of this checkout and runs
# the benchmark with the given arguments, e.g.
#
#   bash benchmarks/run.sh --workload cc-rmat --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go's build cache and its usage
# counters, the two binaries, generated CSV files, spans) goes under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -o "$build/bin/" ./cmd/rasqld ./benchmarks/rasqlbench
exec "$build/bin/rasqlbench" -rasqld "$build/bin/rasqld" -workdir "$build/work" "$@"
