#!/usr/bin/env bash
# Builds the sfbench harness from this checkout and runs it; every
# argument is passed through (see bench/README.md). Run it from the
# repository root. The Go build cache, temporary build files and all
# benchmark outputs stay under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local

go -C bench build -o "$out/sfbench/sfbench" ./sfbench
exec "$out/sfbench/sfbench" "$@"
