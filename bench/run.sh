#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout. Everything the
# Go toolchain writes (build cache, temporary files) and everything the run
# writes goes under .bench_build/ in that checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/telemetry ]; then
	echo "bench/run.sh: run from the root of a checkout (no go.mod or internal/ here)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
exec go run ./bench "$@"
