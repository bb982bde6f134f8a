#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing
# every argument through:
#   bash perfbench/run.sh --workload grid-mixed --seed 1 --seconds 22 --trace 0
# Build cache, binary and scratch files stay under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
# Every file the toolchain writes (build cache, module cache, telemetry)
# stays inside the build directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build/work" "$@"
