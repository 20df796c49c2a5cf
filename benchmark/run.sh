#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark and the real
# mhatuned daemon from the checkout's source into .bench_build/ (build
# cache included, so nothing is written outside the checkout), then runs
# the benchmark binary with the caller's arguments.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"

if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: no go.mod beside benchmark/: nothing to measure here" >&2
	exit 2
fi

mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local

# Rebuild only when a source file is newer than the binary: the driver
# makes ~100 runs per checkout and a no-op `go build` still costs ~0.5 s.
if [ ! -x "$out/benchmark" ] || [ ! -x "$out/mhatuned" ] ||
	[ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name 'go.mod' -o -name '*.json' -o -name '*.txt' \) -newer "$out/benchmark" -print -quit)" ]; then
	(cd "$root" && go build -o "$out/mhatuned" ./cmd/mhatuned)
	(cd "$here" && go build -o "$out/benchmark" .)
fi

cd "$root"
# BENCH_T0_NS lets setup_s count process start-up (exec, runtime and
# package initialisation), which the binary cannot time from inside.
BENCH_T0_NS="$(date +%s%N)" exec "$out/benchmark" "$@"
