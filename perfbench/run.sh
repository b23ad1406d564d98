#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload motif-census --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the generated
# inputs and traces.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" GOTOOLCHAIN=local
unset MORPH_FLIGHT_DIR
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --dir "$out/perfbench-data" "$@"
