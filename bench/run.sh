#!/usr/bin/env bash
# Builds the benchmark harness (package main of module courserank/bench,
# which reaches the repository's packages through the replace directive
# in bench/go.mod) and runs it with the given arguments. Start it at the
# root of a checkout. Everything built lands in .bench_build/, the go
# build cache included, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
