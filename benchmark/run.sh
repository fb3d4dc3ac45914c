#!/usr/bin/env bash
# The benchmark's one command. Builds dlbench (Release) from the
# checkout, then either
#
#   run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
#       runs one workload; the last stdout line is its JSON result, or
#   run.sh [--seed N] [--seconds S] [--out DIR] [--smoke]
#       runs all six workloads untraced, then traced, printing every
#       metric by name with its unit (--smoke: ~1 s each, reduced sizes).
#
# Records (BENCH_<workload>.json) and Chrome traces (trace_<workload>.json)
# go to DIR, by default <build>/records. The build directory is
# $CARGO_TARGET_DIR when set, else build-bench/. Exits non-zero when a
# build fails or any correctness check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-build-bench}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root/benchmark" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

rev="$(git -C "$root" rev-parse --short HEAD 2> /dev/null || echo unknown)"
dlbench=("$build/dlbench" --spec "$root/BENCHMARK.json" --git-rev "$rev")

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "${dlbench[@]}" --out "$build/records" "$@"
  fi
done

seed=1
seconds=12
out="$build/records"
smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

status=0
for trace in 0 1; do
  for workload in train-compute train-hvd train-hvd-int8 sim-summit serve-http serve-inproc; do
    "${dlbench[@]}" --out "$out" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" \
      "${smoke[@]}" | sed '$d' || status=1
  done
done
exit "$status"
