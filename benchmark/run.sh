#!/usr/bin/env bash
# Builds the mergescale CLI and the benchmark harness from this checkout's
# source, then runs the harness. Run from the checkout root:
#
#   bash benchmark/run.sh --workload regen|sweep|browse --seed N --seconds S --trace 0|1
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: binaries, the Go build cache, temp files and per-run work
# directories.
set -euo pipefail

root=$(pwd)
if [ ! -f benchmark/go.mod ]; then
	echo "benchmark/run.sh: run from the checkout root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOENV=off

# With telemetry on, a go command may start a detached upload process that
# outlives it; turn it off in this checkout's config dir before any build.
go telemetry off
go build -o "$build/mergescale" ./cmd/mergescale
(cd benchmark && go build -o "$build/harness" .)
exec "$build/harness" -root "$root" "$@"
