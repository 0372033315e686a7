#!/usr/bin/env bash
# Builds the benchmark harness from the source tree it is run in and runs
# it with the given arguments, e.g.
#
#   bash tools/rmwtso-bench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, the harness binary, scratch cache directories, span
# dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOENV=off

go build -o "$out/rmwtso-bench" ./tools/rmwtso-bench >&2
exec "$out/rmwtso-bench" "$@"
