#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it
# with the arguments given. Everything the build writes (compiler
# cache, scratch files, toolchain counters, the binary) and everything a
# run writes goes under .bench_build/ in that checkout, and nowhere else.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off # go's telemetry counters follow the user config dir
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/flux-bench" ./bench
exec "$out/flux-bench" -out "$out" "$@"
