#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it from the
# checkout root. Build outputs, the Go build cache and trace files stay in
# .bench_build/ so the run reads and writes only inside the checkout.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C bench -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" "$@"
