#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Everything the build and the run write stays inside the
# checkout, under .bench_build/: the harness binary, Go's build cache,
# module path and telemetry counters, and the datasets a run writes.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/rtbh-bench" .)
cd "$root"
exec "$build/rtbh-bench" "$@"
