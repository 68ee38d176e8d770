#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# bench/ is a module of its own (bench/go.mod replaces the repository's
# module with ../), so the repository's own build and tests never see it.
# Everything the go command writes stays inside the checkout: build cache,
# temp files, module cache, and the telemetry counters it keeps under the
# user's configuration directory.
set -euo pipefail
cd "$(dirname "$0")/.."
b=$PWD/.bench_build
mkdir -p "$b/tmp"
export GOCACHE="$b/go-cache" GOTMPDIR="$b/tmp" GOPATH="$b/gopath" GOMODCACHE="$b/gopath/pkg/mod"
export XDG_CONFIG_HOME="$b/config" GOENV=off
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$b/etlbench" .)
exec "$b/etlbench" "$@"
