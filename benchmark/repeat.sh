#!/usr/bin/env bash
# Repeat the benchmark and summarise run-to-run spread.
#
#   bash benchmark/repeat.sh N [--seconds T] [--trace 0|1] [--scale smoke|full]
#                              [--workload NAME]...
#
# Runs every workload (or the --workload ones) N times, seeds 1 .. N,
# interleaving workloads within each round. For each metric it prints the
# median, the quartiles (Python's statistics.quantiles(n=4)), the
# interquartile spread as a share of the median, and the min/max spread;
# for an end-to-end metric it also prints its bound from BENCHMARK.json and
# whether the spread is within a third of it ("ok"), within it ("wide") or
# not ("OVER"; setup_s is exempt from this check).
#
# Results go to build-benchmark/repeat/<workload>.jsonl (one JSON result per
# line) and the summary, with the host's thread counts and the commit, to
# build-benchmark/repeat/summary.json (benchmark/baseline.json is one).
# The summary of the previous invocation is kept as previous.json, and each
# median is compared with it: a second set agrees with the first when no
# median is worse than the first set's by more than the metric's bound.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ $# -lt 1 || ! "$1" =~ ^[0-9]+$ ]]; then
  echo "usage: repeat.sh N [--seconds T] [--trace 0|1] [--scale smoke|full]" \
       "[--workload NAME]..." >&2
  exit 2
fi
runs="$1"
shift
selected=()
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) selected+=("$2"); shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
if [[ ${#selected[@]} -eq 0 ]]; then
  selected=(mesh16_saturated mesh32_sharded collective16 sweep8_explore
            fault_storm16)
fi

out="build-benchmark/repeat"
mkdir -p "$out"
if [[ -f "$out/summary.json" ]]; then
  mv "$out/summary.json" build-benchmark/previous.json
else
  echo "{}" > build-benchmark/previous.json
fi
rm -rf "$out"
mkdir -p "$out"
mv build-benchmark/previous.json "$out/previous.json"
status=0
for ((i = 1; i <= runs; ++i)); do
  for w in "${selected[@]}"; do
    line="$(bash benchmark/run.sh --workload "$w" --seed "$i" \
              ${args[@]+"${args[@]}"} | tail -n 1)" || status=1
    echo "$line" >> "$out/$w.jsonl"
    echo "run $i seed $i $w: $line" >&2
  done
done

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
python3 - "$out" "$runs" "${args[*]-}" "$commit" "${selected[@]}" <<'EOF'
import json, os, statistics, sys

out, runs, args, commit = sys.argv[1:5]
workloads = sys.argv[5:]
metric_spec = {m["name"]: m for m in
               json.load(open("BENCHMARK.json"))["end_to_end"]}
previous = json.load(open(f"{out}/previous.json"))
summary = {"host": {
    "hardware_threads": os.cpu_count(),
    "nproc": len(os.sched_getaffinity(0)),
    "commit": commit,
    "command": f"bash benchmark/repeat.sh {runs} {args}".strip(),
    "seeds": f"1..{runs}",
}}
agree = True
for w in workloads:
    results = [json.loads(l) for l in open(f"{out}/{w}.jsonl") if l.strip()]
    correct = all(r["correct"] and r["failed"] == 0 for r in results)
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0], None, values[0])
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "minmax_share": (max(values) - min(values)) / med if med else 0.0,
        }
    summary[w] = {"runs": len(results), "all_correct": correct,
                  "metrics": metrics}
    print(f"\n{w}: {len(results)} runs, all correct: {correct}")
    print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'iqr/med':>8} {'max-min/med':>11} {'bound':>6} {'spread':>6}"
          f" {'vs previous':>12}")
    for name, m in metrics.items():
        spec = metric_spec.get(name)
        bound = f"{spec['bound']:.2f}" if spec else "-"
        spread = "-"
        if spec:
            spread = ("ok" if m["iqr_share"] < spec["bound"] / 3 else
                      "wide" if m["iqr_share"] <= spec["bound"] else "OVER")
        change = "-"
        old = previous.get(w, {}).get("metrics", {}).get(name)
        if spec and old and old["median"]:
            worse = (m["median"] - old["median"]) / old["median"]
            if spec["better"] == "higher":
                worse = -worse
            within = worse <= spec["bound"]
            agree = agree and within
            change = f"{worse:+.4f} {'ok' if within else 'WORSE'}"
        print(f"  {name:<32} {m['median']:>14.6g} {m['q1']:>14.6g}"
              f" {m['q3']:>14.6g} {m['iqr_share']:>8.4f}"
              f" {m['minmax_share']:>11.4f} {bound:>6} {spread:>6}"
              f" {change:>12}")
if previous:
    summary["agrees_with_previous"] = agree
    print(f"\nmedians vs previous.json (share worse; bound from "
          f"BENCHMARK.json): {'all within bound' if agree else 'NOT within bound'}")
with open(f"{out}/summary.json", "w") as f:
    json.dump(summary, f, indent=1)
print(f"\nsummary: {out}/summary.json")
if not all(summary[w]["all_correct"] for w in workloads):
    sys.exit(1)
EOF
exit $status
