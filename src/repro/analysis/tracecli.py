"""``python -m repro trace`` — analyse JSONL traces.

Subcommands::

    repro trace summarize run.jsonl
    repro trace paths     run.jsonl [--all] [--limit N]
    repro trace timeline  run.jsonl <trace-id>
    repro trace profile   run.jsonl

The traces come from ``python -m repro run <scenario> --trace
run.jsonl`` (:mod:`repro.shard.cli`), which records any full-stack
scenario with full tracing, the metrics registry, and the kernel
profiler enabled, and appends ``metrics.snapshot`` and
``kernel.profile`` records to the end of the log so these subcommands
are self-contained; ``summarize`` also reads the sync-profile JSONL of
a ``--shards`` run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.paths import (
    format_loss_table,
    format_path,
    loss_attribution,
    reconstruct_paths,
)
from repro.analysis.tracelog import load_trace, summarize_trace


def _run_summarize(args) -> int:
    records = load_trace(args.trace)
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


def _run_paths(args) -> int:
    records = load_trace(args.trace)
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


def _run_timeline(args) -> int:
    from repro.analysis.paths import trace_timeline

    records = load_trace(args.trace)
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


def _run_profile(args) -> int:
    records = load_trace(args.trace)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="analyse causal message traces",
    )
    sub = parser.add_subparsers(dest="trace_command", required=True)

    summ = sub.add_parser("summarize", help="run-level statistics")
    summ.add_argument("trace")
    summ.set_defaults(func=_run_summarize)

    paths = sub.add_parser(
        "paths", help="per-message routes and loss attribution"
    )
    paths.add_argument("trace")
    paths.add_argument(
        "--all", action="store_true",
        help="show undelivered messages too, not just delivered ones",
    )
    paths.add_argument("--limit", type=int, default=10)
    paths.set_defaults(func=_run_paths)

    timeline = sub.add_parser(
        "timeline", help="every event touching one trace id"
    )
    timeline.add_argument("trace")
    timeline.add_argument("trace_id", help="e.g. 25.17 (origin.msg_id)")
    timeline.set_defaults(func=_run_timeline)

    profile = sub.add_parser("profile", help="kernel event-loop profile")
    profile.add_argument("trace")
    profile.add_argument("--limit", type=int, default=15)
    profile.set_defaults(func=_run_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
