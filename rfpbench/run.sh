#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, e.g.
#   bash rfpbench/run.sh --workload sim-compute --seed 1 --seconds 30 --trace 0
# Run it from the repository root. Build outputs, results and spans go to
# .bench_build/ there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOFLAGS=
# The commit stamp needs git; where git cannot describe the checkout,
# build without it (the result then reads commit "unknown").
go -C rfpbench build -o "$out/rfpbench" . 2>/dev/null ||
	go -C rfpbench build -buildvcs=false -o "$out/rfpbench" .
exec "$out/rfpbench" "$@"
