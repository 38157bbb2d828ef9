"""``python -m repro run`` / ``report`` — the one surface for single runs.

::

    repro run <scenario> [-p KEY=VALUE]... [--seed N] [--duration S]
              [--shards K --transport inline|process]
              [--trace FILE] [--out FILE]
    repro run --list
    repro report FILE        (what --out wrote, or a campaign store entry)

A run is a :class:`~repro.shard.ShardPlan` over the scenario registry
(:mod:`repro.shard.scenario`): ``-p`` sets a scenario param (JSON where
``VALUE`` parses, else text; ``@file.json`` reads the JSON from a file).
``--trace`` logs the trace bus as JSONL and appends ``metrics.snapshot``
/ ``kernel.profile`` records, so the ``repro trace`` subcommands are
self-contained; with ``--shards`` it writes the sync profile's
``shard.stats`` / ``shard.profile`` / ``metrics.snapshot`` records
instead.  ``run`` exits 0 iff every armed invariant held and no loss
went unattributed; a param the recipe refuses is a usage error.  The
flags are declared in :mod:`repro.__main__`, which imports this module
(and with it the whole stack) only to run one of the two commands.
"""

from __future__ import annotations

import json
import textwrap
from typing import Any, Dict, Tuple

from repro.analysis.dtn import format_dtn_report
from repro.analysis.resilience import format_resilience_report
from repro.analysis.tracelog import TraceLogger
from repro.shard.runner import build_whole, run_sharded
from repro.shard.scenario import SCENARIOS
from repro.shard.worker import ShardPlan
from repro.sim import TraceBus, use_registry


def _param(text: str) -> Tuple[str, Any]:
    """``KEY=VALUE`` → (key, JSON value | text | the JSON in ``@file``)."""
    key, sep, value = text.partition("=")
    if not (key and sep):
        raise ValueError(f"expected KEY=VALUE, got {text!r}")
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as handle:
                return key, json.load(handle)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from None
    try:
        return key, json.loads(value)
    except ValueError:
        return key, value


def format_scenarios() -> str:
    """Every scenario with its params and their defaults."""
    lines = []
    for name, scenario in sorted(SCENARIOS.items()):
        doc = " ".join(scenario.__doc__.split("\n\n")[0].split())
        params = "  ".join(
            f"{key}={json.dumps(value)}"
            for key, value in scenario.defaults.items()
        )
        lines += [f"{name}: {doc}", textwrap.fill(
            params, 78, initial_indent="    ", subsequent_indent="    ",
            break_on_hyphens=False,
        )]
    return "\n".join(lines)


def format_outcome(outcome: Dict[str, Any]) -> str:
    """One outcome as text: the repair or transfer report where the
    workload has one, plus the propagation mode's section; else every
    key, lists by their length."""
    keys = ("messages_by_class", "bytes_by_class", "hierarchy")
    if "report" in outcome:
        lines = [format_resilience_report(outcome)]
    elif "custody_stats" in outcome:
        lines = [format_dtn_report(outcome)]
    else:
        # "metrics" is the registry snapshot the campaign pool attaches.
        lines, keys = [], sorted(set(outcome) - {"metrics"})
    for key in keys:
        value = outcome.get(key)
        if isinstance(value, list):
            value = f"{len(value)} entries"
        if value is not None:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def format_sync_profile(plan: ShardPlan, transport: str, result) -> str:
    """The synchronization profile of one sharded run: which promise
    term bound each window, how windows were sized, how long each shard
    stalled at the exchange barrier, and how well the partition
    balanced the work."""
    shards = result["shards"]
    profile = result["profile"]
    lines = [
        f"sharded run: {plan.scenario} {sum(s['owned'] for s in shards)} "
        f"nodes, {plan.shards} shard(s), {transport} transport, "
        f"{plan.duration:g}s simulated",
        "",
        "window attribution (which promise term bound each horizon):",
        f"  {'term':<12} {'windows':>8} {'share':>8}",
    ]
    total_windows = profile["windows"]
    share_sum = 0.0
    for term, count in sorted(
        profile["windows_by_term"].items(), key=lambda kv: -kv[1]
    ):
        share = 100.0 * count / total_windows if total_windows else 0.0
        share_sum += share
        lines.append(f"  {term:<12} {count:>8} {share:>7.1f}%")
    lines.append(f"  {'total':<12} {total_windows:>8} {share_sum:>7.1f}%")
    # Shards that take turns instead of running together read ~50% here.
    lines.append(
        f"  windows that executed no event: {profile['empty_windows']} "
        f"of {total_windows}"
    )

    lines += [
        "",
        "per shard:",
        f"  {'rank':>4} {'owned':>6} {'events':>9} {'windows':>8} "
        f"{'busy_s':>8} {'stall_s':>8} {'exch_B':>9} {'exports':>8} "
        f"{'ghosts':>7}",
    ]
    for s in shards:
        lines.append(
            f"  {s['rank']:>4} {s['owned']:>6} {s['events']:>9} "
            f"{s['rounds']:>8} {s['busy_seconds']:>8.3f} "
            f"{s['stall_seconds']:>8.3f} {s['exchange_bytes']:>9} "
            f"{s['exports']:>8} {s['ghosts_admitted']:>7}"
        )

    lines += [
        "",
        "window span (simulated seconds) per shard:",
        f"  {'rank':>4} {'count':>8} {'mean':>9} {'p50':>9} {'p95':>9} "
        f"{'p99':>9} {'max':>9}",
    ]
    for s, snapshot in zip(shards, result["metrics"]):
        span = snapshot.get("histograms", {}).get(
            f"shard.window_span{{shard={s['rank']}}}"
        )
        if span and span.get("count"):
            lines.append(
                f"  {s['rank']:>4} {span['count']:>8} {span['mean']:>9.4f} "
                f"{span['p50']:>9.4f} {span['p95']:>9.4f} "
                f"{span['p99']:>9.4f} {span['max']:>9.4f}"
            )

    stall = profile["stall_seconds"]
    lines += [
        "",
        f"barrier stall: total {sum(stall):.3f}s, "
        f"worst shard {max(stall):.3f}s",
        f"exchange volume: {profile['exchange_bytes']} bytes",
        f"load imbalance (max/mean busy): {profile['imbalance']:.2f}",
    ]
    return "\n".join(lines)


def _or_usage(parser, build, *args):
    """``build(*args)``; what a recipe refuses (a ``ValueError``,
    ``PlanError`` included) is the caller's params, not a crash."""
    try:
        return build(*args)
    except ValueError as exc:
        parser.error(str(exc))


def _run_single(plan: ShardPlan, args, parser) -> Dict[str, Any]:
    """One queue; with ``--trace`` the bus is logged, and the trailing
    aggregate records make the log self-contained."""
    if not args.trace:
        net = _or_usage(parser, build_whole, plan)
        net.sim.run(until=plan.duration)
        return net.outcome()
    with use_registry() as registry:
        net = _or_usage(parser, build_whole, plan)
        if net.network is None:
            parser.error(f"{plan.scenario} has no trace bus to record")
        bus = net.network.trace
        profiler = net.sim.enable_profiler()
        with TraceLogger(bus, path=args.trace) as logger:
            net.sim.run(until=plan.duration)
            bus.emit(net.sim.now, "metrics.snapshot", **registry.snapshot())
            bus.emit(net.sim.now, "kernel.profile", **profiler.snapshot())
        outcome = net.outcome()
    print(f"recorded {logger.records_written} records to {args.trace}")
    return outcome


def _run_sharded(plan: ShardPlan, args, parser) -> Dict[str, Any]:
    with use_registry() as registry:
        # Shards build inside the run: no finer seam to catch a refused
        # param at.
        result = _or_usage(parser, run_sharded, plan, args.transport)
    print(format_sync_profile(plan, args.transport, result) + "\n")
    if args.trace:
        # The profile as a tracelog, so `trace summarize` reads it.
        bus = TraceBus()
        with TraceLogger(bus, path=args.trace):
            for stats in result["shards"]:
                bus.emit(plan.duration, "shard.stats", **stats)
            bus.emit(plan.duration, "shard.profile", **result["profile"])
            bus.emit(plan.duration, "metrics.snapshot", **registry.snapshot())
        print(f"wrote {args.trace}")
    return result["outcome"]


def run_command(args, parser) -> int:
    """``repro run``; ``parser`` is its subparser, for usage errors."""
    if args.list:
        print(format_scenarios())
        return 0
    if args.scenario is None:
        parser.error("name a scenario, or --list them")
    params = dict(_or_usage(parser, _param, text) for text in args.param)
    plan = _or_usage(
        parser, ShardPlan.named,
        args.scenario, params, args.seed, args.shards, args.duration,
    )
    run = _run_sharded if args.shards > 1 else _run_single
    outcome = run(plan, args, parser)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(outcome, handle, indent=2)
        print(f"wrote {args.out}")
    print(format_outcome(outcome))
    info = outcome.get("flight_recorder")
    if info is not None:
        print(
            f"flight recorder: {info['records']} of {info['records_seen']} "
            f"events dumped to {info['path']}"
        )
    ok = outcome.get("invariants_ok", True) and not outcome.get("unattributed")
    return 0 if ok else 1


def report_command(args, parser) -> int:
    """``repro report FILE``: render what ``run --out`` saved, or the
    outcome a campaign stored (a store entry keeps it under ``result``)."""
    try:
        with open(args.result, "r", encoding="utf-8") as handle:
            saved = json.load(handle)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read result: {exc}")
    print(format_outcome(saved["result"] if "trial" in saved else saved))
    return 0
