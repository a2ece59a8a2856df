#!/usr/bin/env bash
# Builds simdperf from source and runs it with the given flags, keeping the
# build cache, binary, run artifacts and the Go tool's own state (telemetry
# counters) in .bench_build at the repository root. Example:
#
#   bash bench/run.sh --workload vga_mixed --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/simdperf" ./cmd/simdperf)
cd "$root"
exec "$build/simdperf" -out "$build/out" "$@"
