"""``python -m repro trace`` — analyse JSONL traces.

Subcommands::

    repro trace summarize run.jsonl
    repro trace paths     run.jsonl [--all] [--limit N]
    repro trace timeline  run.jsonl <trace-id>
    repro trace profile   run.jsonl [--limit N]

The traces come from ``python -m repro run <scenario> --trace
run.jsonl`` (:mod:`repro.shard.cli`), which records any full-stack
scenario with full tracing, the metrics registry, and the kernel
profiler enabled, and appends ``metrics.snapshot`` and
``kernel.profile`` records to the end of the log so these subcommands
are self-contained; ``summarize`` also reads the sync-profile JSONL of
a ``--shards`` run.  The flags are declared in :mod:`repro.__main__`,
which imports this module only to run a trace subcommand.  A file that
cannot be read as a trace (missing, unreadable, or malformed before its
last line) is a usage error: ``cannot read trace: ...``, exit 2.
"""

from __future__ import annotations

import sys

from repro.analysis.paths import (
    format_loss_table,
    format_path,
    loss_attribution,
    reconstruct_paths,
)
from repro.analysis.tracelog import load_trace, summarize_trace


def _run_summarize(args, records) -> int:
    summary = summarize_trace(records)
    print(f"records:   {summary.record_count}")
    print(f"duration:  {summary.duration:.3f}s (simulated)")
    print("by category:")
    for category, count in sorted(summary.by_category.items()):
        print(f"  {category:<24} {count}")
    if summary.tx_by_class:
        print("tx by message class:")
        for label in sorted(summary.tx_by_class):
            print(
                f"  {label:<14} {summary.tx_by_class[label]:>8} msgs "
                f"{summary.tx_bytes_by_class.get(label, 0):>10} B"
            )
    if summary.tx_bytes_by_node:
        print("tx bytes by node:")
        for node, nbytes in sorted(summary.tx_bytes_by_node.items()):
            print(f"  node {node:<4} {nbytes}")
    if summary.collisions_by_node:
        print("collisions by node:")
        for node, count in sorted(summary.collisions_by_node.items()):
            print(f"  node {node:<4} {count}")
    for record in records:
        if record.category == "metrics.snapshot":
            print("metrics:")
            for name, value in sorted(
                record.data.get("counters", {}).items()
            ):
                print(f"  {name:<44} {value}")
            for name, hist in sorted(
                record.data.get("histograms", {}).items()
            ):
                if not hist.get("count"):
                    continue  # registered but never observed
                line = f"  {name:<44} n={hist['count']} mean={hist['mean']:.2f}"
                if hist.get("p95") is not None:
                    line += f" p95={hist['p95']:.2f} max={hist['max']:g}"
                print(line)
    return 0


def _run_paths(args, records) -> int:
    paths = reconstruct_paths(records)
    data_paths = [
        p
        for p in paths.values()
        if p.msg_type in ("DATA", "EXPLORATORY_DATA")
    ]
    delivered = [p for p in data_paths if p.delivered]
    undelivered = [p for p in data_paths if not p.delivered]
    print(
        f"{len(data_paths)} data messages: {len(delivered)} delivered, "
        f"{len(undelivered)} lost"
    )
    shown = data_paths if args.all else delivered
    for path in shown[: args.limit]:
        print()
        print(format_path(path))
    if len(shown) > args.limit:
        print(f"\n... {len(shown) - args.limit} more (raise --limit)")
    print()
    print("loss attribution (undelivered data messages):")
    print(format_loss_table(loss_attribution(paths)))
    return 0


def _run_timeline(args, records) -> int:
    from repro.analysis.paths import trace_timeline

    timeline = trace_timeline(records, args.trace_id)
    if not timeline:
        print(f"no records mention trace {args.trace_id!r}", file=sys.stderr)
        return 1
    for record in timeline:
        extras = " ".join(
            f"{k}={v}"
            for k, v in sorted(record.data.items())
            if k != "trace"
        )
        print(
            f"{record.time:10.4f}s  {record.category:<18} "
            f"node={record.node}  {extras}"
        )
    paths = reconstruct_paths(records)
    path = paths.get(args.trace_id)
    if path is not None:
        print()
        print(format_path(path))
    return 0


def _run_profile(args, records) -> int:
    profile = None
    for record in records:
        if record.category == "kernel.profile":
            profile = record.data
    if profile is None:
        print(
            "no kernel.profile record in trace "
            "(record with `repro run <scenario> --trace` to include one)",
            file=sys.stderr,
        )
        return 1
    print(f"events:          {profile.get('events')}")
    print(f"events/sec:      {profile.get('events_per_second', 0.0):.0f}")
    print(f"busy seconds:    {profile.get('busy_seconds', 0.0):.4f}")
    print(f"max queue depth: {profile.get('max_queue_depth')}")
    sites = profile.get("sites", [])
    if sites:
        print(f"{'site':<28} {'count':>8} {'seconds':>10} {'mean_us':>9}")
        for site in sites[: args.limit]:
            print(
                f"{site.get('site', '?'):<28} {site.get('count', 0):>8} "
                f"{site.get('seconds', 0.0):>10.4f} "
                f"{site.get('mean_us', 0.0):>9.1f}"
            )
    return 0


def trace_command(args, parser) -> int:
    """Run ``args.action`` (``summarize|paths|timeline|profile``) on the
    records of ``args.trace``."""
    handlers = {"summarize": _run_summarize, "paths": _run_paths,
                "timeline": _run_timeline, "profile": _run_profile}
    try:
        records = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read trace: {exc}")
    return handlers[args.action](args, records)
