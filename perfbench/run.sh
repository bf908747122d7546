#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
# Run from the root of a checkout:
#   bash perfbench/run.sh --workload suite-warm --seed 0 --seconds 40 --trace 0
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export PERFBENCH_ROOT="$root"
go -C "$root/perfbench" build -trimpath -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
