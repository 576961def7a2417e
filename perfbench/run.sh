#!/usr/bin/env bash
# Builds beacongw and the benchmark from this tree into .bench_build and
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload gw-single --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build caches stay inside .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
# Keep everything the go command writes (build cache, temporary work
# directories, telemetry counters) inside the build directory.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/bin/beacongw" ./cmd/beacongw
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -beacongw "$out/bin/beacongw" -work "$out" "$@"
