#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload forkjoin --seed 1 --seconds 12 --trace 0
# Run from the repository root. The build cache, the binary and traced runs'
# spans all go under .bench_build/ there; nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local
go -C "$here" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
