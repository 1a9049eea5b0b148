#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Everything the
# build writes stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
