#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload golden-sweep --seed 1 --seconds 40 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout:
# the Go build cache and temporary files, the binary, and the traced run's
# spans and profiles.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

# The perfbench module resolves nonortho through a replace of "../"; a
# directory without the simulator's go.mod fails here, before any run.
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
