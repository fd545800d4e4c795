#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# e.g. bash perfbench/run.sh --workload design --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under $CARGO_TARGET_DIR
# (default .bench_build), so the run writes nothing outside the tree.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp" "$build/work"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
# The benchmark needs nothing beyond the standard library and this
# repository: never reach for a module proxy or another toolchain.
export GOPROXY=off GOTOOLCHAIN=local

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
