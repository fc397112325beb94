#!/bin/bash
# The driver's entry point: build the benchmark inside the checkout, then
# run it with the driver's arguments. Go's build cache, temporary files and
# telemetry counters are kept under .bench_build, so that nothing is written
# outside the checkout.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
go build -o "$build/hostbench" ./benchmark
exec "$build/hostbench" "$@"
