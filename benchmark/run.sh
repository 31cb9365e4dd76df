#!/usr/bin/env bash
# Build the benchmark inside the checkout, then become it.
#
# `exec` (not `go run`) matters: the benchmark is then the direct child of
# whoever started this script, so killing that child leaves nothing behind,
# where `go run` would orphan the compiled program it spawned.
set -euo pipefail
cd "$(dirname "$0")/.."

# Everything the Go toolchain writes stays inside the checkout.
export GOCACHE="$PWD/.bench_build/go-cache"
export GOMODCACHE="$PWD/.bench_build/go-mod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd benchmark && go build -o bin/elmem-benchmark .)
exec benchmark/bin/elmem-benchmark "$@"
