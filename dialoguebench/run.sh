#!/usr/bin/env bash
# Builds questprod, qpgate and the benchmark from the checkout this script
# sits in, then runs the benchmark with the given arguments:
#
#   bash dialoguebench/run.sh --workload analyst-sessions --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, binaries, run directories, kept
# traces) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/bin/" ./cmd/questprod ./cmd/qpgate
go -C dialoguebench build -o "$out/bin/dialoguebench" .
exec "$out/bin/dialoguebench" -bin "$out/bin" -work "$out/run" "$@"
