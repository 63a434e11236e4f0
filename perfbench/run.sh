#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# repository, for example:
#
#   bash perfbench/run.sh --workload compute --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, traces and CPU profiles all go under
# .bench_build/perfbench, so the run reads and writes only inside the tree.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/dqemu-trace-check" dqemu/cmd/dqemu-trace-check
) >&2
cd "$root"
exec "$out/perfbench" -out "$out" -trace-check "$out/dqemu-trace-check" "$@"
