#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build at the root of the checkout and runs it with the
# arguments given. Everything go writes (build cache included) stays
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-modcacherw
cold=0
[ -x "$build/seedb-benchmark" ] || cold=1
(cd "$here" && go build -o "$build/seedb-benchmark" ./cmd/seedb-benchmark)
# A first build writes ~100 MB of build cache; let the kernel finish
# writing it back before anything is timed.
[ "$cold" = 0 ] || sync
exec "$build/seedb-benchmark" -dir "$here" "$@"
