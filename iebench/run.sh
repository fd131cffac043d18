#!/usr/bin/env bash
# Builds the InterEdge benchmark from source and runs it. Run from the
# repository root:
#
#   bash iebench/run.sh --workload fastpath-64b --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, temporary files (the
# SN's IPC module socket among them) and the per-run results.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/iebench" && go build -o "$out/iebench" .)
# A relative TMPDIR keeps Unix socket paths short whatever the checkout path.
TMPDIR=.bench_build/tmp exec "$out/iebench" "$@"
