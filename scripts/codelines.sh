#!/usr/bin/env bash
# Non-test Go code lines in the root module: blank lines and lines that
# hold only a // comment are not counted; benchmarks/ is its own module.
# This is the number CHANGES.md has quoted since PR 12.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' -not -path './.bench_build/*' -print0 |
	xargs -0 cat | grep -cvE '^[[:space:]]*(//.*)?$'
