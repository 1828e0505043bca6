#!/usr/bin/env bash
# Non-test Go code lines: blank lines and lines that hold only a //
# comment are not counted. With no arguments it prints the root module's
# total (benchmarks/ is its own module) — the number CHANGES.md has
# quoted since PR 12. Each directory argument, relative to the repo root,
# is counted with the same filter and printed as "<lines> <dir>".
#
#	bash scripts/codelines.sh                           # root total
#	bash scripts/codelines.sh internal/backend/shardbe  # one package
set -euo pipefail
cd "$(dirname "$0")/.."
count() {
	find "$1" -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' -not -path './.bench_build/*' -print0 |
		xargs -0 cat | grep -cvE '^[[:space:]]*(//.*)?$' || true
}
if [ $# -eq 0 ]; then
	count .
	exit 0
fi
for dir in "$@"; do
	echo "$(count "$dir") $dir"
done
