#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#
#   bash _perfbench/run.sh --workload sweep-chain100 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. It builds the benchmark and the
# unchanged cmd/bbserve server that serve-mix loads. Every build artifact,
# cache, and log stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export GOWORK=off

(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/bbserve" ./cmd/bbserve >&2
exec "$out/perfbench" -out "$out" "$@"
