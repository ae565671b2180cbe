#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes — the Go build cache, the binary, the temp journals
# of a run — stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/aribench" .)
exec "$build/aribench" "$@"
