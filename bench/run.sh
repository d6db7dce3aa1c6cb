#!/usr/bin/env bash
# Builds the federation benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh -workload ship-tcp -seed 1 -seconds 12 -trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory: the Go build cache, module and config directories, temporary
# files, and the benchmark binary. The build needs no network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C bench build -o "$out/dxmlbench" .
exec "$out/dxmlbench" "$@"
