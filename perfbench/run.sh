#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything it writes (Go build cache, binary, records, spans, metric
# snapshots) stays under .bench_build/perfbench in the current directory.
set -euo pipefail

build="$PWD/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

go -C perfbench build -trimpath -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
