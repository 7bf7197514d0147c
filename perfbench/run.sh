#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root; every file it writes stays under .bench_build/ there:
#
#   bash perfbench/run.sh --workload conference-read --seed 1 --seconds 20 --trace 0
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
