#!/usr/bin/env bash
# Tier-1 CI gate: the fast test suite, a single-process campaign smoke
# run (exercises the CLI, the worker pool's serial path, the
# content-addressed store, and cache-hit resume end to end), and a
# trace record/summarize smoke over the observability CLI.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest -x -q -m "not slow"

# Matching-engine perf smoke: deterministic comparison *counts* (not
# wall time, so it cannot flake) must drop >=5x on a 50-entry matching
# workload versus the reference Figure 2 scan.
python -m repro.experiments.matchbench --smoke

# Perf-harness tests: perf/spans.py wraps the stack's layer entry
# points by name (Channel.start_transmission, carrier_busy, ...) and
# reads Channel/NeighborhoodIndex counters by attribute; nothing in
# tests/ would notice if one of those vanished.
python -m pytest perf -q

# Radio-channel perf smoke: Channel must produce verdicts identical to
# the ReferenceChannel O(N) scan, and its carrier-sense scan counter
# must track active transmitters while the reference's grows with
# network size (again counters, not wall time).
python -m repro.experiments.channelbench --smoke

# Sharded-kernel smoke: spatially partitioned conservative execution
# must produce outcomes bit-identical to the single-queue oracle across
# scenarios (flood, mobility, diffusion), shard counts (1/2/4), and
# both transports (inline and worker processes), with real boundary
# traffic exchanged (outcome equality, not wall time, so it cannot
# flake).
python -m repro.experiments.scalebench --smoke

# Hierarchy smoke: flat propagation mode must stay bit-identical to
# the classic regional scenario, clustered mode must elect heads
# (0 < heads < N) and suppress member interest rebroadcasts, rendezvous
# mode must suppress out-of-corridor copies, every mode must deliver
# data, and the sharded outcomes must match the single-queue oracle
# (counters and outcome equality, never wall time).
python -m repro.experiments.hierarchybench --smoke

# DTN smoke: with custody off the stack must be bit-identical to a
# build where the custody plumbing never existed; under a 60% partition
# duty custody must engage with every loss attributed; the data mule
# must deliver >= 2x the baseline with blocks crossing *while*
# partitioned; and a same-seed replay must reproduce the armed run bit
# for bit (outcome equality and counters, never wall time).
python -m repro.experiments.dtnbench --smoke

# Fault-injection smoke: a seeded FaultPlan must replay bit-identically
# (same timeline, same repair metrics), invariants must hold, and
# repair must land within a bounded number of exploratory intervals
# (counters and event times, not wall time).
python -m repro faults --smoke

# Shard-sync profiler smoke: every conservative window must be
# attributed to a promise term (shares sum to 100%), window-span
# histograms must count every round, and real exchange volume must be
# reported (counters again, not wall time).
python -m repro trace shards --scenario flood --shards 2 \
    --columns 8 --rows 4 --duration 5 --smoke

store="$(mktemp -d)"
trap 'rm -rf "$store"' EXIT
python -m repro campaign run scale-aggregation --quick --jobs 1 --store "$store"
# An immediate re-run must be served entirely from cache.
# Buffer the output: grep -q would close the pipe mid-print and kill
# the CLI with SIGPIPE under pipefail.
rerun="$(python -m repro campaign run scale-aggregation --quick --jobs 1 --store "$store")"
grep -q "cached=2" <<<"$rerun" \
    || { echo "campaign cache miss on re-run" >&2; exit 1; }

# Observability smoke: record a tiny traced run, then summarize it.
trace="$store/smoke-trace.jsonl"
python -m repro trace record --out "$trace" --scenario line --nodes 3 \
    --duration 20 --seed 1
python -m repro trace summarize "$trace" > "$store/summary.txt"
grep -q "diffusion.tx" "$store/summary.txt" \
    || { echo "trace summarize missing diffusion.tx" >&2; exit 1; }
python -m repro trace paths "$trace" > "$store/paths.txt"
grep -q "data messages:" "$store/paths.txt" \
    || { echo "trace paths produced no report" >&2; exit 1; }

# Flight-recorder smoke: provoke an invariant violation (a zero-entry
# gradient-table bound) and require the postmortem dump to hold the
# causal lead-up — at least 64 trace events behind its header line.
flight="$store/flight.jsonl"
python -m repro faults run --fault crash --duration 60 \
    --demo-violation --flight-recorder "$flight"
lines="$(wc -l < "$flight")"
[ "$lines" -ge 65 ] \
    || { echo "flight recorder dumped only $lines lines" >&2; exit 1; }
echo "tier-1 OK"
