#!/usr/bin/env bash
# End-to-end perf-trajectory benchmark: builds the bench_e2e harness
# (Release) and regenerates BENCH_e2e.json at the repo root.
#
# Usage: scripts/bench.sh [--quick] [--out PATH]
#   --quick  3-case subset, still best-of-3 (the CI smoke configuration)
#   --out    where to write the JSON (default: <repo>/BENCH_e2e.json)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
OUT="$ROOT/BENCH_e2e.json"
ARGS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) ARGS+=(--quick) ;;
    --out) OUT="$2"; shift ;;
    *) echo "usage: bench.sh [--quick] [--out PATH]" >&2; exit 2 ;;
  esac
  shift
done

BUILD="$ROOT/build-bench"
cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD" -j "$JOBS" --target bench_e2e

"$BUILD/bench/bench_e2e" "${ARGS[@]+"${ARGS[@]}"}" --out "$OUT"
echo "benchmark written to $OUT"
