#!/usr/bin/env bash
# Builds the crossbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash crossbench/run.sh --workload stream-philly --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traced runs' spans stay under
# .bench_build/ at the repository root (override with CARGO_TARGET_DIR).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOTOOLCHAIN=local GOPROXY=off
# -C keeps the build inside the benchmark's own module.
go -C "$root/crossbench" build -o "$out/crossbench" .
exec "$out/crossbench" --spans-out "$out/spans" "$@"
