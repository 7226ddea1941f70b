#!/usr/bin/env bash
# Builds the benchmark and the server from the checkout it is run in, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash tribench/run.sh --workload query-uniform --seed 1 --seconds 12 --trace 0
#
# Every build artifact, cache and scratch file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain's caches and config (telemetry included) in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/tribench" && go build -o "$out/tribench" .)
go build -o "$out/tripoline-server" ./cmd/tripoline-server
exec "$out/tribench" -server "$out/tripoline-server" -work "$out" "$@"
