#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Builds the harness from the tree around
# this directory and runs it, keeping every file the Go toolchain writes —
# build cache included — inside the checkout under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f go.mod ] || { echo "benchmark/run.sh: no go.mod beside benchmark/: the benchmark builds minicostd from the repository it sits in" >&2; exit 2; }
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
