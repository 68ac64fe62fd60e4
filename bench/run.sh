#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source into
# .bench_build/ and exec it from the checkout root with the caller's flags.
# The Go build cache, GOPATH, the compiler's temp dir and the toolchain's
# config dir (telemetry counters) are all pointed inside .bench_build/, so
# nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
  echo "bench/run.sh: no go.mod in $root: the harness builds against the repo's module" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gotmp" "$build/config/go/telemetry"
# Telemetry off: with a fresh config dir the go command would otherwise start
# a telemetry sidecar process that can outlive it.
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/fixd-perf" ./bench
exec "$build/fixd-perf" "$@"
