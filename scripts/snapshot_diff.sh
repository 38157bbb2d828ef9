#!/usr/bin/env bash
# What moved in the registry: one traced run of a scenario in each of two
# checkouts, every instrument of the final metrics.snapshot that differs.
#
#   scripts/snapshot_diff.sh <parent-checkout> <change-checkout> <scenario> [run args...]
#
# Runs `python -m repro run <scenario> [run args...] --trace FILE` with
# each checkout's src/ on PYTHONPATH, reads the last metrics.snapshot
# record of each trace, and prints one line per counter or histogram
# field whose value differs (a missing instrument reads "absent").  Exits 1 if anything differs, 0 if the two
# snapshots are equal.  A trace hash only says that something moved;
# this says what.  Example:
#
#   scripts/snapshot_diff.sh /tmp/parent . dtn -p mode=clustered --seed 1
set -euo pipefail

parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
shift 2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for side in parent change; do
    checkout="$parent"
    [[ "$side" == change ]] && checkout="$change"
    # The run's own exit status (a violated invariant is 1) is not ours.
    PYTHONPATH="$checkout/src" python3 -m repro run "$@" \
        --trace "$tmp/$side.jsonl" >"$tmp/$side.out" || true
    [[ -s "$tmp/$side.jsonl" ]] || {
        echo "snapshot_diff: no trace from the $side checkout:" >&2
        cat "$tmp/$side.out" >&2
        exit 2
    }
done

python3 - "$tmp/parent.jsonl" "$tmp/change.jsonl" <<'EOF'
import json, sys


def flat(path):
    """name[.field] -> value over the last metrics.snapshot record."""
    snapshot = None
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("cat") == "metrics.snapshot":
                snapshot = record["data"]
    if snapshot is None:
        sys.exit(f"snapshot_diff: {path} has no metrics.snapshot record")
    values = {}
    for kind, instruments in sorted(snapshot.items()):
        for name, value in instruments.items():
            if isinstance(value, dict):
                for field, inner in value.items():
                    values[f"{kind} {name}.{field}"] = inner
            else:
                values[f"{kind} {name}"] = value
    return values


parent, change = flat(sys.argv[1]), flat(sys.argv[2])
moved = [
    key for key in sorted(set(parent) | set(change))
    if parent.get(key, "absent") != change.get(key, "absent")
]
for key in moved:
    print(f"{key:60s} {parent.get(key, 'absent')!s:>14} -> "
          f"{change.get(key, 'absent')!s}")
print(f"{len(moved)} of {len(set(parent) | set(change))} values differ")
sys.exit(1 if moved else 0)
EOF
