#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's git-ignored
# .bench_build/ (binary and Go build cache both, so nothing is read or
# written outside the checkout) and runs it with the given arguments, from
# the repository root. See README.md beside this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export PPROF_TMPDIR="$build/pprof"

start=$(date +%s.%N)
(cd "$here" && go build -o "$build/bench" .)
export BENCH_BUILD_S
BENCH_BUILD_S=$(echo "$(date +%s.%N) $start" | awk '{printf "%.3f", $1 - $2}')

cd "$root"
exec "$build/bench" "$@"
