#!/usr/bin/env bash
# Entry point of the repository benchmark; BENCHMARK.json names it as the
# command. Builds the harness (its own module, bench/go.mod) and runs it
# from the checkout root. The harness builds cmd/seraph-server itself.
#
#   bash bench/run.sh --workload serve-mqo --seed 1 --seconds 24 --trace 0
#
# Everything the toolchain and the run write stays inside the checkout:
# .bench_build/ (binaries, Go build cache, data directories) and
# bench/out/ (server logs, traces, result files).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# The build cache, and what the go command would otherwise keep under
# $HOME (module cache, env file, telemetry counters), go under .bench_build.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/seraph-benchmark" .)
cd "$root"
exec "$build/seraph-benchmark" "$@"
