#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repo root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-o DIR]
#   bash bench/run.sh compare BASE FRESH
#   bash bench/run.sh capture
#
# Every build artifact (Go build cache, temp files, the go command's
# config and telemetry directory, the binary) stays under .bench_build/
# in the checkout, and the toolchain is pinned to the local one with the
# module proxy off, so the build never leaves the checkout or the machine.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$build/isacmp-bench" .) >&2
cd "$root"
exec "$build/isacmp-bench" "$@"
