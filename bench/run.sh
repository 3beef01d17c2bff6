#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. This is the
# command BENCHMARK.json names; every argument goes to the program.
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary, WAL directories and probe files live under
# .bench_build/ (or $CARGO_TARGET_DIR, which the driver sets), reports and
# traces under bench/out/.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d bft ] || [ ! -d internal ]; then
    echo "bench/run.sh: $(pwd) is not a checkout of the repository (no go.mod, bft/, internal/)" >&2
    exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export BENCH_BUILD_DIR="$build"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOFLAGS="-mod=vendor"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
