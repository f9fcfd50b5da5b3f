#!/usr/bin/env bash
# Regenerate the golden sim_digests in benchmark/golden/{full,smoke}.txt.
#
#   bash benchmark/golden.sh [SEED...]        (default seeds: 0 .. 20)
#
# Each line is "<workload> <seed> <digest>": the sim_digest of the
# workload's first episode, which every run of that seed and scale
# simulates identically whatever its time budget. Regenerate only when a
# change is meant to alter simulated behaviour, and say so in the change.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seeds=("$@")
[[ ${#seeds[@]} -gt 0 ]] || seeds=($(seq 0 20))
workloads=(mesh16_saturated mesh32_sharded collective16 sweep8_explore
           fault_storm16)

for scale in full smoke; do
  out="benchmark/golden/$scale.txt"
  tmp="build-benchmark/golden-$scale.txt"
  mkdir -p build-benchmark
  echo "# workload seed sim_digest ($scale scale, episode 0); written by" \
       "benchmark/golden.sh" > "$tmp"
  for w in "${workloads[@]}"; do
    for s in "${seeds[@]}"; do
      # An empty golden directory: the run reports the digest, checks no
      # golden, and every invariant check must still pass.
      result="$(bash benchmark/run.sh --workload "$w" --seed "$s" \
                  --seconds 0 --scale "$scale" \
                  --golden-dir build-benchmark/no-golden)"
      digest="$(awk '$1 == "sim_digest" { print $2 }' <<< "$result")"
      if [[ "$(tail -n 1 <<< "$result")" != *'"correct": true'* ]]; then
        echo "golden.sh: $w seed $s ($scale) failed its checks" >&2
        exit 1
      fi
      echo "$w $s $digest" >> "$tmp"
      echo "$scale $w $s $digest" >&2
    done
  done
  mkdir -p benchmark/golden
  mv "$tmp" "$out"
done
