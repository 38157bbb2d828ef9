#!/usr/bin/env bash
# Where did the saving land: one traced run of a ledger workload in each
# of two checkouts, every per-layer row side by side (choosing-metrics
# guide, section 6.6).
#
#   scripts/layer_diff.sh <parent-checkout> <change-checkout> <workload> [seed=11]
#
# Runs the command in the change checkout's BENCHMARK.json, in each
# checkout in turn, as `--workload W --seed S --trace 1`, and prints for
# each per-layer metric of that BENCHMARK.json the parent's value, the
# change's and change/parent ("absent" where a workload does not report
# the row).  Counts are deterministic; the *.self_s rows are one traced
# run each, so read them as a split of the time, not as a timing claim.
set -euo pipefail

parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
seed="${4:-11}"

read -r -a command < <(
    python3 -c 'import json, sys; print(*json.load(open(sys.argv[1]))["command"])' \
        "$change/BENCHMARK.json"
)
results="$(mktemp)"
trap 'rm -f "$results"' EXIT

for side in parent change; do  # the contract's result line is the last one
    checkout="$parent"
    [[ "$side" == change ]] && checkout="$change"
    (cd "$checkout" && "${command[@]}" --workload "$workload" --seed "$seed" \
        --trace 1 | tail -n 1) >>"$results"
done

python3 - "$results" "$change/BENCHMARK.json" "$workload" "$seed" <<'EOF'
import json, sys

parent, change = (json.loads(line)["metrics"] for line in open(sys.argv[1]))
rows = json.load(open(sys.argv[2]))["per_layer"]
print(f"{sys.argv[3]}, seed {sys.argv[4]}, one traced run each")
print(f"{'metric':32s} {'parent':>14s} {'change':>14s} {'change/parent':>14s}  unit")


def shown(value):
    return "absent" if value < 0 else f"{value:.6g}"


for row in rows:
    name = row["name"]
    a = parent.get(name, {}).get("value", -1)
    b = change.get(name, {}).get("value", -1)
    ratio = f"{b / a:.3f}" if a > 0 and b >= 0 else "-"
    print(f"{name:32s} {shown(a):>14s} {shown(b):>14s} {ratio:>14s}  {row['unit']}")
EOF
