#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one workload.
# Run from the repository root; the arguments go to bsidebench:
#
#   bash bench/run.sh --workload sweep-cold --seed 42 --seconds 15 --trace 0
#
# The build (with its Go build cache) and every file the run writes stay
# under .bench_build/ in the current directory. The harness is its own
# Go module and needs the bside module one directory up, so outside a
# full checkout the build fails and so does this script.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# The go command keeps its build cache, module cache and (through the
# config directory) its telemetry counters here, not in the home
# directory.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/bsidebench" ./cmd/bsidebench)
exec "$out/bsidebench" -workdir "$out/work" "$@"
