#!/usr/bin/env bash
# Alternating parent/change pairs of one ledger workload: the ten-pair
# rule every gain claim is held to (choosing-metrics guide, section 8).
#
#   scripts/ab_pairs.sh <parent-checkout> <change-checkout> <workload> [pairs=10] [seed=23]
#
# Runs the command in the change checkout's BENCHMARK.json, in each
# checkout in turn, as `--workload W --seed S --seconds 20 --trace 0`;
# which side goes first alternates pair by pair.  Prints every run, then
# for each end-to-end metric each side's median and quartiles and the
# pairs the change won (ties count for neither), and one verdict line
# per metric: `gain` when the change won at least nine tenths of the
# pairs and its median beats the parent's by more than the parent's
# inter-quartile distance; otherwise `worse` when its median is worse
# than the parent's by more than the metric's BENCHMARK.json bound (a
# fraction of the parent's median), else `same`.  Seed 23 is the
# held-out seed; run nothing else on the host meanwhile.
set -euo pipefail

parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seed="${5:-23}"

read -r -a command < <(
    python3 -c 'import json, sys; print(*json.load(open(sys.argv[1]))["command"])' \
        "$change/BENCHMARK.json"
)
results="$(mktemp)"
trap 'rm -f "$results"' EXIT

run_side() {  # <side> <checkout> <pair>: the contract's result line is the last one
    local line
    line="$(cd "$2" && "${command[@]}" --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 0 | tail -n 1)"
    echo "$3 $1 $line" >>"$results"
    echo "pair $3 $1 $line"
}

for pair in $(seq 1 "$pairs"); do
    if (( pair % 2 )); then
        run_side parent "$parent" "$pair"; run_side change "$change" "$pair"
    else
        run_side change "$change" "$pair"; run_side parent "$parent" "$pair"
    fi
done

python3 - "$results" "$change/BENCHMARK.json" "$workload" "$seed" <<'EOF'
import json, statistics, sys

runs = {"parent": {}, "change": {}}
for line in open(sys.argv[1]):
    pair, side, result = line.split(" ", 2)
    runs[side][int(pair)] = json.loads(result)
print(f"\n{sys.argv[3]}, seed {sys.argv[4]}, {len(runs['parent'])} pairs "
      "(q1 / median / q3; failed ops parent "
      f"{sum(r['failed'] for r in runs['parent'].values())}, change "
      f"{sum(r['failed'] for r in runs['change'].values())})")
verdicts = []
for metric in json.load(open(sys.argv[2]))["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    side = {
        s: {p: r["metrics"][name]["value"] for p, r in by_pair.items()}
        for s, by_pair in runs.items()
    }
    won = sum(
        (side["change"][p] < v) if lower else (side["change"][p] > v)
        for p, v in side["parent"].items()
    )
    stats = {}
    for s, values in side.items():
        q1, median, q3 = statistics.quantiles(
            values.values(), n=4, method="inclusive"
        )
        stats[s] = (q1, median, q3)
    (p1, pm, p3), (c1, cm, c3) = stats["parent"], stats["change"]
    print(f"{name:12s} parent {p1:.4g} / {pm:.4g} / {p3:.4g}   "
          f"change {c1:.4g} / {cm:.4g} / {c3:.4g}   "
          f"change/parent {cm / pm:.3f}   parent IQR {p3 - p1:.3g}   "
          f"median gap {abs(cm - pm):.3g}   change won {won}/{len(side['parent'])}")
    better_by = (pm - cm) if lower else (cm - pm)
    if won >= 0.9 * len(side["parent"]) and better_by > p3 - p1:
        verdict = "gain"
    elif -better_by > metric["bound"] * abs(pm):
        verdict = "worse"
    else:
        verdict = "same"
    verdicts.append(f"verdict {name:12s} {verdict}")
print(*verdicts, sep="\n")
EOF
