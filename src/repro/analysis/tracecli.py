"""``python -m repro trace`` — record and analyse JSONL traces.

Subcommands::

    repro trace record    --out run.jsonl --scenario line --nodes 3
    repro trace summarize run.jsonl
    repro trace paths     run.jsonl [--all] [--limit N]
    repro trace timeline  run.jsonl <trace-id>
    repro trace profile   run.jsonl
    repro trace shards    [--scenario flood] [--shards 4] [--out f.jsonl]

``record`` runs a small canned scenario (a line network or the ISI
14-node testbed of Figure 7) with full tracing, the metrics registry,
and the kernel profiler enabled, and appends ``metrics.snapshot`` and
``kernel.profile`` records to the end of the log so the analysis
subcommands are self-contained.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.paths import (
    format_loss_table,
    format_path,
    format_route,
    loss_attribution,
    reconstruct_paths,
)
from repro.analysis.tracelog import TraceLogger, load_trace, summarize_trace

DEMO_TYPE = "trace-demo"


def _build_scenario(args):
    """A (network, sink_id, source_ids) triple for the chosen scenario."""
    from repro.radio import Topology
    from repro.testbed import (
        FIG8_SINK,
        FIG8_SOURCES,
        SensorNetwork,
        isi_testbed_network,
    )

    if args.scenario == "isi":
        network = isi_testbed_network(seed=args.seed)
        return network, FIG8_SINK, list(FIG8_SOURCES[: args.sources])
    topology = Topology.line(args.nodes, spacing=15.0)
    network = SensorNetwork(topology, seed=args.seed)
    node_ids = network.node_ids()
    return network, node_ids[0], [node_ids[-1]]


def _run_record(args) -> int:
    from repro.naming import AttributeVector
    from repro.naming.keys import Key
    from repro.sim import use_registry

    with use_registry() as registry:
        network, sink_id, source_ids = _build_scenario(args)
        profiler = network.sim.enable_profiler()
        with TraceLogger(network.trace, path=args.out) as logger:
            received: List = []
            sub = AttributeVector.builder().eq(Key.TYPE, DEMO_TYPE).build()
            network.api(sink_id).subscribe(
                sub, lambda attrs, msg: received.append(msg)
            )

            for source_id in source_ids:
                api = network.api(source_id)
                pub = api.publish(
                    AttributeVector.builder()
                    .actual(Key.TYPE, DEMO_TYPE)
                    .actual(Key.INSTANCE, str(source_id))
                    .build()
                )

                def tick(api=api, pub=pub, seq=[0]):
                    api.send(
                        pub,
                        AttributeVector.builder()
                        .actual(Key.SEQUENCE, seq[0])
                        .build(),
                    )
                    seq[0] += 1
                    if network.sim.now + args.interval < args.duration:
                        network.sim.schedule(args.interval, tick)

                network.sim.schedule(args.warmup, tick)

            network.run(until=args.duration)
            # Trailing aggregate records make the log self-contained.
            network.trace.emit(
                network.sim.now, "metrics.snapshot", **registry.snapshot()
            )
            network.trace.emit(
                network.sim.now, "kernel.profile", **profiler.snapshot()
            )
        print(
            f"recorded {logger.records_written} records to {args.out} "
            f"({args.scenario} scenario, {len(received)} deliveries at "
            f"node {sink_id})"
        )
    return 0


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
            "(record with `repro trace record` to include one)",
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


def _run_shards(args) -> int:
    """Run a sharded trial and render the synchronization profile.

    This is the PR-6 black box opened up: which promise term bound each
    window, how windows were sized, how long each shard stalled at the
    exchange barrier, and how well the partition balanced the work.
    """
    import json

    from repro.shard import ShardPlan, run_sharded
    from repro.sim import use_registry
    from repro.sim.trace import _jsonable

    params = {"columns": args.columns, "rows": args.rows}
    if args.scenario == "regional":
        params["region"] = max(2, args.columns // 4)
    plan = ShardPlan(
        scenario=args.scenario, params=params, seed=args.seed,
        duration=args.duration, shards=args.shards,
    )
    with use_registry() as registry:
        result = run_sharded(plan, transport=args.transport)
    shards = result["shards"]
    profile = result["profile"]
    n_nodes = sum(s["owned"] for s in shards)

    print(
        f"sharded run: {args.scenario} {n_nodes} nodes, "
        f"{plan.shards} shard(s), {args.transport} transport, "
        f"{plan.duration:g}s simulated"
    )

    total_windows = profile["windows"]
    print("\nwindow attribution (which promise term bound each horizon):")
    print(f"  {'term':<12} {'windows':>8} {'share':>8}")
    share_sum = 0.0
    for term, count in sorted(
        profile["windows_by_term"].items(), key=lambda kv: -kv[1]
    ):
        share = 100.0 * count / total_windows if total_windows else 0.0
        share_sum += share
        print(f"  {term:<12} {count:>8} {share:>7.1f}%")
    print(f"  {'total':<12} {total_windows:>8} {share_sum:>7.1f}%")

    print("\nper shard:")
    print(
        f"  {'rank':>4} {'owned':>6} {'events':>9} {'windows':>8} "
        f"{'busy_s':>8} {'stall_s':>8} {'exch_B':>9} {'exports':>8} "
        f"{'ghosts':>7}"
    )
    for s in shards:
        print(
            f"  {s['rank']:>4} {s['owned']:>6} {s['events']:>9} "
            f"{s['rounds']:>8} {s['busy_seconds']:>8.3f} "
            f"{s['stall_seconds']:>8.3f} {s['exchange_bytes']:>9} "
            f"{s['exports']:>8} {s['ghosts_admitted']:>7}"
        )

    print("\nwindow span (simulated seconds) per shard:")
    print(
        f"  {'rank':>4} {'count':>8} {'mean':>9} {'p50':>9} {'p95':>9} "
        f"{'p99':>9} {'max':>9}"
    )
    for s, snapshot in zip(shards, result["metrics"]):
        span = snapshot.get("histograms", {}).get(
            f"shard.window_span{{shard={s['rank']}}}"
        )
        if not span or not span.get("count"):
            continue
        print(
            f"  {s['rank']:>4} {span['count']:>8} {span['mean']:>9.4f} "
            f"{span['p50']:>9.4f} {span['p95']:>9.4f} "
            f"{span['p99']:>9.4f} {span['max']:>9.4f}"
        )

    stall = profile["stall_seconds"]
    print(
        f"\nbarrier stall: total {sum(stall):.3f}s, "
        f"worst shard {max(stall):.3f}s"
        if stall else "\nbarrier stall: n/a"
    )
    print(f"exchange volume: {profile['exchange_bytes']} bytes")
    print(f"load imbalance (max/mean busy): {profile['imbalance']:.2f}")

    if args.out:
        # A tracelog-compatible JSONL so `trace summarize` reads it.
        with open(args.out, "w", encoding="utf-8") as handle:
            for s in shards:
                handle.write(json.dumps({
                    "t": plan.duration, "cat": "shard.stats",
                    "node": None, "data": _jsonable(s),
                }) + "\n")
            handle.write(json.dumps({
                "t": plan.duration, "cat": "shard.profile",
                "node": None, "data": _jsonable(profile),
            }) + "\n")
            handle.write(json.dumps({
                "t": plan.duration, "cat": "metrics.snapshot",
                "node": None, "data": _jsonable(registry.snapshot()),
            }) + "\n")
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="record and analyse causal message traces",
    )
    sub = parser.add_subparsers(dest="trace_command", required=True)

    rec = sub.add_parser("record", help="run a canned scenario and record it")
    rec.add_argument("--out", required=True, help="JSONL output path")
    rec.add_argument(
        "--scenario", choices=["line", "isi"], default="line",
        help="line topology or the ISI 14-node testbed",
    )
    rec.add_argument("--nodes", type=int, default=3, help="line length")
    rec.add_argument(
        "--sources", type=int, default=4, help="ISI source count (1-4)"
    )
    rec.add_argument("--duration", type=float, default=60.0)
    rec.add_argument("--warmup", type=float, default=3.0)
    rec.add_argument(
        "--interval", type=float, default=5.0,
        help="seconds between data sends (paper cadence: ~6s)",
    )
    rec.add_argument("--seed", type=int, default=1)
    rec.set_defaults(func=_run_record)

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

    shards = sub.add_parser(
        "shards", help="run a sharded trial and profile its synchronization"
    )
    shards.add_argument(
        "--scenario", choices=["flood", "mobility", "diffusion", "regional"],
        default="flood",
    )
    shards.add_argument("--shards", type=int, default=4)
    shards.add_argument(
        "--transport", choices=["inline", "process"], default="inline",
    )
    shards.add_argument("--duration", type=float, default=20.0)
    shards.add_argument("--columns", type=int, default=15)
    shards.add_argument("--rows", type=int, default=10)
    shards.add_argument("--seed", type=int, default=11)
    shards.add_argument(
        "--out", help="also write stats/profile/metrics as JSONL here"
    )
    shards.set_defaults(func=_run_shards)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
