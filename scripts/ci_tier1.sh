#!/usr/bin/env bash
# Tier-1 CI gate: the fast test suite (every pass/fail check lives
# there), the paper's claims (`repro experiments` on its full grids:
# every row of the claims table must land in its band), the perf
# harness's own tests, the benchmark's command on
# `flood_1k_mobile` and `isi_fig8`, the ledger pins (every
# BENCHMARK.json workload's outcome digest at seeds 11 and 23 against
# tests/pins.json), the wide pins (30 fault, custody, energy and
# 100-256 node oracle runs against the same file), both sets again with
# same-instant ties reversed, scripts/mem_diff.sh run on one
# checkout against itself, and the only out-of-process CLI
# drives: a single-process campaign smoke run of a plan grid (the CLI,
# `plan_trial` over the scenario registry, the worker pool's serial
# path, the content-addressed store, and cache-hit resume end to end)
# with `repro report` over one of its store entries, a `repro run
# --trace` / `trace summarize|paths|profile` smoke over the run and
# observability CLIs, `trace summarize` on a missing file refused as
# a usage error, `faults validate` on a builtin plan, the brownout
# fault on a duty-cycled MAC with its invariants held, the `tracking`
# preset under `python -S`
# (site-packages off: the CLI runs on the standard library alone, as
# the package declares no runtime dependency), a refused non-boolean
# flag, a refused negative
# `campaign run --max-trials` and `run --shards 0`, a NaN count refused
# by name (`run dtn -p payload_bytes=NaN`), two process-shard
# runs (`regional` and `line`) against the single queue, and the
# flight-recorder postmortem of a `repro run` whose invariant is made
# to break.  Among what the suite pins: the radio's fast path against
# the `ReferenceChannel` scan, verdict by verdict
# (tests/test_channel_equivalence.py), with `TestReceiverLanes` holding
# the cached receiver lanes across detaches, table edits, closing
# Gilbert–Elliot windows, moves and a spliced fault overlay.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest -x -q -m "not slow"

# The paper's claims (~60 s with two workers): every section of the
# report on its full grids, Figures 8, 9 and 11 (the reference matcher),
# the Section 6.1 models, the micro build's tiered motes and the
# ablations; exit 1 if any row of repro.campaign.claims misses its band.
# It runs before the perf step, whose trace budget often fails and
# would end the script first.
python -m repro experiments --jobs 2

# Perf-harness tests: perf/spans.py wraps the stack's layer entry
# points by name (Channel.start_transmission, carrier_busy, ...,
# MatchIndex.__init__ and MatchIndex.one_way) and reads Channel /
# NeighborhoodIndex counters and MatchIndex.stats by attribute; this
# step is what pins those names — nothing in tests/ would notice if
# one of them vanished.
python -m pytest perf -q

# The benchmark's own command on its cheapest workload, timed and
# traced (~6 s): run.py exits 0 even when a check fails, so the step
# reads the verdict off the result line.  An import surface or a
# span-wrapped name the harness loses fails here.
ledger="$(python perf/run.py --workload flood_1k_mobile --repeats 2)"
grep -q '"correct": true' <<<"$(tail -n 1 <<<"$ledger")" \
    || { tail -n 20 <<<"$ledger" >&2; echo "perf/run.py flood_1k_mobile is not correct" >&2; exit 1; }

# The same on the Figure 8 workload, untraced (~10 s): its check is the
# digest replay and the suppression saving's band.
ledger="$(python perf/run.py --workload isi_fig8 --repeats 2 --trace 0)"
grep -q '"correct": true' <<<"$(tail -n 1 <<<"$ledger")" \
    || { tail -n 20 <<<"$ledger" >&2; echo "perf/run.py isi_fig8 is not correct" >&2; exit 1; }

# Ledger pins: perf/workloads.py's runs, imported read-only, must hash
# to tests/pins.json (~25 s; the presets' pins are tests/test_pins.py).
python scripts/pins.py --ledger

# Wide pins: the runs the presets' SMALL sizes do not reach — every
# builtin fault plan, the dtn / mule custody arms, the 16x16 regional
# and the 10x10 hierarchy modes (~10 s).
python scripts/pins.py --wide

# The wide and ledger pins again with the kernel's same-instant ties
# reversed (last in, first out; ~10 s and ~25 s): no pinned outcome may
# depend on the order its same-time, same-priority events were
# scheduled in.  tests/test_pins.py does the same for the presets.  The
# reversal reaches the sharded ledger run's workers by fork.
python scripts/pins.py --wide --reverse-ties
python scripts/pins.py --ledger --reverse-ties

# The memory diff, this checkout against itself: tracemalloc growth per
# module repeats byte for byte, so no row may differ.
memdiff="$(scripts/mem_diff.sh . . flood_1k_mobile)"
grep -q "rows that differ: 0" <<<"$memdiff" \
    || { echo "$memdiff" >&2; echo "mem_diff.sh: a checkout differs from itself" >&2; exit 1; }

store="$(mktemp -d)"
trap 'rm -rf "$store"' EXIT

python -m repro campaign run resilience --quick --jobs 1 --store "$store/campaign"
# An immediate re-run must be served entirely from cache.
# Buffer the output: grep -q would close the pipe mid-print and kill
# the CLI with SIGPIPE under pipefail.
rerun="$(python -m repro campaign run resilience --quick --jobs 1 --store "$store/campaign")"
grep -q "cached=6" <<<"$rerun" \
    || { echo "campaign cache miss on re-run" >&2; exit 1; }
# A stored trial is the plan's whole outcome: it renders like `run --out`.
entry="$(find "$store/campaign" -name '*.json' | sort | head -n 1)"
rendered="$(python -m repro report "$entry")"
grep -q "invariants: all held" <<<"$rendered" \
    || { echo "repro report did not render a store entry" >&2; exit 1; }

# The tracking preset (Section 5.3's fusion filter) reports its track,
# with site-packages off: the CLI path needs the standard library only.
tracking="$(python -S -m repro run tracking)"
grep -q "mean_error: [0-9]" <<<"$tracking" \
    || { echo "run tracking printed no mean error" >&2; exit 1; }

# A flag that is not a JSON boolean is refused, not read as true.
rc=0
python -m repro run fig8 -p suppression=False --duration 1 \
    > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] \
    || { echo "suppression=False exited $rc, not 2" >&2; exit 1; }

# A numeric flag out of its range is refused, not read some other way:
# a negative trial budget, and a shard count below one.
rc=0
python -m repro campaign run demo --quick --max-trials -1 \
    --store "$store/refused" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] \
    || { echo "--max-trials -1 exited $rc, not 2" >&2; exit 1; }
rc=0
python -m repro run line --shards 0 > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] \
    || { echo "--shards 0 exited $rc, not 2" >&2; exit 1; }
# A NaN count is refused by name, not with int()'s own message.
rc=0
refusal="$(python -m repro run dtn -p payload_bytes=NaN --duration 50 \
    2>&1 > /dev/null)" || rc=$?
[ "$rc" -eq 2 ] && grep -q "payload_bytes" <<<"$refusal" \
    || { echo "payload_bytes=NaN exited $rc: $refusal" >&2; exit 1; }

# Observability smoke: record a tiny traced run, then summarize it.
trace="$store/smoke-trace.jsonl"
python -m repro run line -p nodes=3 --duration 20 --seed 1 --trace "$trace"
python -m repro trace summarize "$trace" > "$store/summary.txt"
grep -q "diffusion.tx" "$store/summary.txt" \
    || { echo "trace summarize missing diffusion.tx" >&2; exit 1; }
python -m repro trace paths "$trace" > "$store/paths.txt"
grep -q "data messages:" "$store/paths.txt" \
    || { echo "trace paths produced no report" >&2; exit 1; }
python -m repro trace profile "$trace" > "$store/profile.txt"
grep -q "events:" "$store/profile.txt" \
    || { echo "trace profile printed no event count" >&2; exit 1; }
# A file that is no trace is a usage error, not a traceback.
rc=0
refusal="$(python -m repro trace summarize "$store/no-such-trace.jsonl" \
    2>&1 > /dev/null)" || rc=$?
[ "$rc" -eq 2 ] && grep -q "cannot read trace" <<<"$refusal" \
    || { echo "trace summarize on a missing file exited $rc: $refusal" >&2; exit 1; }

# A builtin fault plan, written out as JSON, validates from the CLI.
python -c 'import json; from repro.faults import builtin_plan
print(json.dumps(builtin_plan("partition").to_json()))' > "$store/plan.json"
validated="$(python -m repro faults validate "$store/plan.json")"
grep -q "plan OK" <<<"$validated" \
    || { echo "faults validate refused a builtin plan" >&2; exit 1; }

# The brownout on a duty-cycled MAC: the fault lowers the MAC's own
# duty cycle, and the monitors' invariants hold (exit 0).
python -m repro run resilience -p fault=brownout -p duty_cycle=0.5 > /dev/null \
    || { echo "brownout on a duty-cycled MAC failed its run" >&2; exit 1; }

# Process-transport smoke: repro.shard.process (the pipes, WorkerCrew
# and the worker entry point) and the one-horizon round driven from the
# CLI; two worker processes must write the file the single queue
# writes, byte for byte.
regional=(regional -p columns=12 -p rows=12 --duration 4 --seed 3)
python -m repro run "${regional[@]}" --shards 2 --transport process \
    --out "$store/sharded.json" > /dev/null
python -m repro run "${regional[@]}" --out "$store/oracle.json" > /dev/null
cmp "$store/sharded.json" "$store/oracle.json" \
    || { echo "2 process shards != single queue" >&2; exit 1; }

# The same for a preset at the paper's timers: the loss draw is one
# order-free hash, so `line` shards like any unfaulted preset.
python -m repro run line --shards 2 --transport process \
    --out "$store/line-sharded.json" > /dev/null
python -m repro run line --out "$store/line-oracle.json" > /dev/null
cmp "$store/line-sharded.json" "$store/line-oracle.json" \
    || { echo "line: 2 process shards != single queue" >&2; exit 1; }

# Flight-recorder smoke: provoke an invariant violation (a zero-entry
# gradient-table bound) and require the postmortem dump to hold the
# causal lead-up — at least 64 trace events behind its header line.
flight="$store/flight.jsonl"
if python -m repro run resilience -p fault=crash -p monitor_max_entries=0 \
    -p flight_recorder="$flight" --duration 60; then
    echo "a broken invariant did not fail the run" >&2; exit 1
fi
lines="$(wc -l < "$flight")"
[ "$lines" -ge 65 ] \
    || { echo "flight recorder dumped only $lines lines" >&2; exit 1; }
echo "tier-1 OK"
