#!/usr/bin/env bash
# Builds the selectd benchmark from source and runs it with the given
# arguments, for example:
#
#   bash perfbench/run.sh --workload select-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL files, span dumps) stays under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in there too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
