#!/usr/bin/env bash
# Builds the benchmark, cmd/passd and cmd/passverify from the checkout this
# script sits in and runs the benchmark with the given arguments. The Go
# build cache, the binaries and the daemons' data all stay under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
start=$(date +%s%N)
go -C "$root/benchmark" build -o "$build/bin/" . passv2/cmd/passd passv2/cmd/passverify
took=$(( ($(date +%s%N) - start) / 1000000 ))
export PASSBENCH_BUILD_SECONDS="$((took / 1000)).$(printf '%03d' $((took % 1000)))"
echo "go build: ${PASSBENCH_BUILD_SECONDS}s (not part of setup_s)" >&2
cd "$root"
exec "$build/bin/benchmark" -bin "$build/bin" "$@"
