#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash e2ebench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --workload all            # every workload, one process each
#   bash e2ebench/run.sh compare base.jsonl candidate.jsonl
# Everything the build writes (binary, Go build cache, module cache, Go's
# own config and telemetry) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config HOME=$out/home
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
mkdir -p "$HOME"
go -C e2ebench build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" "$@"
