#!/usr/bin/env bash
# Where did the memory go: the memory twin of layer_diff.sh
# (choosing-metrics guide, section 6.6).  One run of a ledger workload in
# each of two checkouts under tracemalloc, and the bytes allocated and
# still held from the first kernel event to the end of the run, grouped
# by the src/repro module that allocated them, side by side.
#
#   scripts/mem_diff.sh <parent-checkout> <change-checkout> <workload> [seed=11]
#
# Each checkout imports its own perf/workloads.py (read-only) and runs
# the workload's single-queue run; a workload whose run happens in shard
# processes is refused.  "Start" is the first entry into Simulator.run,
# "end" the return of the last one, so the network is still alive; the
# collector runs before each snapshot, so garbage it had not yet reached
# counts on neither side.  Rows are bytes; allocations outside src/repro
# share one row.  The last line counts the rows whose change - parent is
# not 0: a checkout against itself must print "rows that differ: 0".
set -euo pipefail

parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
seed="${4:-11}"

probe='
import gc, json, sys, tracemalloc
from pathlib import Path

sys.path.insert(0, "perf")
from repro.sim import Simulator
from workloads import WORKLOADS

workload = WORKLOADS[sys.argv[1]]
if not workload.in_process:
    sys.exit(f"mem_diff.sh: {workload.name} runs in shard processes")
root = str(Path("src/repro").resolve()) + "/"
snapshots = {}
plain_run = Simulator.run


def snapshot():
    gc.collect()
    return tracemalloc.take_snapshot()


def measured_run(sim, *args, **kwargs):
    if "start" not in snapshots:
        snapshots["start"] = snapshot()
    plain_run(sim, *args, **kwargs)
    snapshots["end"] = snapshot()


Simulator.run = measured_run
tracemalloc.start()
workload.run(int(sys.argv[2]))
tracemalloc.stop()
grown = {}
for stat in snapshots["end"].compare_to(snapshots["start"], "filename"):
    filename = stat.traceback[0].filename
    module = filename[len(root):] if filename.startswith(root) else "(outside src/repro)"
    grown[module] = grown.get(module, 0) + stat.size_diff
print(json.dumps(grown))
'

results="$(mktemp)"
trap 'rm -f "$results"' EXIT
for checkout in "$parent" "$change"; do
    # One string-hash seed on both sides, so both allocate alike.
    (cd "$checkout" && PYTHONHASHSEED=0 PYTHONPATH=src python3 -c "$probe" \
        "$workload" "$seed") >>"$results"
done

python3 - "$results" "$workload" "$seed" <<'EOF'
import json, sys

parent, change = (json.loads(line) for line in open(sys.argv[1]))
print(f"{sys.argv[2]}, seed {sys.argv[3]}: tracemalloc growth from the first "
      "kernel event to the end of the run, bytes")
print(f"{'module':28s} {'parent':>14s} {'change':>14s} {'change-parent':>14s}"
      f" {'change/parent':>14s}")
rows = sorted(set(parent) | set(change),
              key=lambda m: (-max(abs(parent.get(m, 0)), abs(change.get(m, 0))), m))
for module in rows + ["total"]:
    if module == "total":
        a, b = sum(parent.values()), sum(change.values())
    else:
        a, b = parent.get(module, 0), change.get(module, 0)
    ratio = f"{b / a:.3f}" if a > 0 else "-"
    print(f"{module:28s} {a:>14,d} {b:>14,d} {b - a:>14,d} {ratio:>14s}")
print(f"rows that differ: {sum(parent.get(m, 0) != change.get(m, 0) for m in rows)}")
EOF
