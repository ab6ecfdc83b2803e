#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload chain-fastpath --seed 1 --seconds 30 --trace 0
# Run from the repository root. Every build artefact, the Go build
# cache and the traced runs' span files stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/trace" "$@"
