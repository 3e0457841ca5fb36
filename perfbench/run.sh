#!/usr/bin/env bash
# Builds the repository benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload serve_read --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# generated inputs and the trace files all stay under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/main.go ]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
