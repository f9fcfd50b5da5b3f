#!/usr/bin/env bash
# End-to-end benchmark of the NoC simulator: configure, build and run.
#
#   bash benchmark/run.sh --workload NAME --seed S [--seconds T] [--trace 0|1]
#                         [--scale smoke|full]
#       one workload; the last line of stdout is its JSON result
#   bash benchmark/run.sh [--seed S] [--seconds T] [--trace 0|1] [--scale ...]
#       all five workloads, one process each; their JSON results are
#       collected into build-benchmark/results.json
#
# The benchmark program (noc_bench) is built from the repository's own
# sources into build-benchmark/ (see benchmark/CMakeLists.txt); nothing is
# downloaded.
# Exits non-zero, printing no result, when the build fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="build-benchmark"
mkdir -p "$build"

if [[ ! -f "$build/Makefile" ]]; then
  if ! cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release \
       > "$build/configure.log" 2>&1; then
    tail -n 30 "$build/configure.log" >&2
    echo "run.sh: configure failed (log: $build/configure.log)" >&2
    rm -f "$build/Makefile"
    exit 1
  fi
fi
if ! cmake --build "$build" --target noc_bench -j "$(nproc)" \
     > "$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 1
fi

bench="$build/noc_bench"

workload=""
args=()
while [[ $# -gt 0 ]]; do
  if [[ "$1" == "--workload" && $# -ge 2 ]]; then
    workload="$2"
    shift 2
  else
    args+=("$1")
    shift
  fi
done

if [[ -n "$workload" ]]; then
  exec "$bench" --workload "$workload" "${args[@]}"
fi

# Default seed and budget when running the whole pass.
[[ " ${args[*]-} " == *" --seed "* ]] || args+=(--seed 1)
[[ " ${args[*]-} " == *" --seconds "* ]] || args+=(--seconds 10)

status=0
results="$build/results.json"
echo "[" > "$results.tmp"
first=1
for w in mesh16_saturated mesh32_sharded collective16 sweep8_explore \
         fault_storm16; do
  echo "=== $w"
  out="$("$bench" --workload "$w" "${args[@]}")" || status=1
  echo "$out"
  line="$(tail -n 1 <<< "$out")"
  [[ "$line" == *'"correct": true'* && "$line" == *'"failed": 0,'* ]] \
    || status=1
  [[ $first -eq 1 ]] || echo "," >> "$results.tmp"
  first=0
  printf '{"workload": "%s", "result": %s}' "$w" "$line" >> "$results.tmp"
done
echo "]" >> "$results.tmp"
mv "$results.tmp" "$results"
echo "results: $results"
exit $status
