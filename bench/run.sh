#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument on. Run it from the root of the checkout:
#
#   bash bench/run.sh --workload cluster-prefetch --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and any trace output stay under
# .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
