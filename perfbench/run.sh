#!/usr/bin/env bash
# Builds the tree under test and the benchmark, then runs one benchmark
# run. From the repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes goes under .bench_build/ (Go build
# cache included); the last line of standard output is the result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/bin/ssbgen" ./cmd/ssbgen >&2
(cd perfbench && go build -o "$build/bin/server" ./server && go build -o "$build/bin/driver" ./driver) >&2
exec "$build/bin/driver" --build "$build" "$@"
