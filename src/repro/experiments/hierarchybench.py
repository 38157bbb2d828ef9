"""Hierarchy ablation: flat vs clustered vs rendezvous propagation.

Flat directed diffusion floods every interest to every node, so the
control plane grows with deployment size even when every task is
local.  This benchmark quantifies what the two hierarchical modes in
:mod:`repro.hierarchy` buy on the regional workload (one local
source→sink pair per region block — the paper's
many-concurrent-local-tasks deployment shape):

* **control traffic** — interest transmissions plus cluster-control
  announcements, in messages and bytes (the per-class counters from
  ``diffusion.tx.messages{class=...}``);
* **delivery ratio** — application payloads received over payloads
  offered;
* **time to first data** — seconds from the first application send to
  the first sink delivery, the latency cost of funneling discovery
  through a backbone or a rendezvous region.

Every trial runs through the sharded kernel
(:class:`~repro.shard.ShardPlan`), so the 1024-node rows execute in
parallel, and every mode/row is seed-deterministic.

``python -m repro.experiments.hierarchybench`` writes
BENCH_hierarchy.json; ``--smoke`` is the CI gate: a small grid where
heads must be elected, member rebroadcasts must be suppressed, every
mode must deliver data, flat mode must be bit-identical to the classic
regional scenario, and the sharded clustered/rendezvous outcomes must
match the single-queue oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.shard import ShardPlan, run_oracle, run_sharded

#: first application send (matches DiffusionScenario's schedule).
SEND_START = 2.0

#: hierarchy tuning used by the benchmark rows.  Announcements at 3x
#: the interest interval (their only steady-state job is liveness),
#: refresh damping past the second sink refresh but safely inside the
#: gradient timeout.
BENCH_HIERARCHY = {
    "announce_interval": 24.0,
    "announce_jitter": 3.0,
    "refresh_damping": 17.0,
}

MODES = ("flat", "clustered", "rendezvous")


def _pair_count(columns: int, rows: int, region: int) -> int:
    blocks_r = len(range(0, rows - region + 1, region))
    blocks_c = len(range(0, columns - region + 1, region))
    return blocks_r * blocks_c


def _trial_params(
    mode: str,
    columns: int,
    rows: int,
    region: int,
    duration: float,
    send_interval: float,
    hierarchy: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    return {
        "columns": columns,
        "rows": rows,
        "spacing": 15.0,
        "region": region,
        "duration": duration,
        "send_interval": send_interval,
        "mode": mode,
        "hierarchy": dict(BENCH_HIERARCHY, **(hierarchy or {})),
    }


def run_trial(
    mode: str,
    columns: int,
    rows: int,
    region: int = 8,
    duration: float = 90.0,
    send_interval: float = 2.0,
    seed: int = 3,
    shards: int = 1,
    hierarchy: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One mode on one grid; returns the benchmark row."""
    params = _trial_params(
        mode, columns, rows, region, duration, send_interval, hierarchy
    )
    plan = ShardPlan(
        scenario="hierarchy", params=params, seed=seed,
        duration=duration, shards=shards,
    )
    start = time.perf_counter()
    if shards > 1:
        outcome = run_sharded(plan)["outcome"]
    else:
        outcome = run_oracle(plan)
    wall = time.perf_counter() - start

    sends = int((duration - SEND_START) / send_interval)
    offered = _pair_count(columns, rows, region) * sends
    msgs = outcome["messages_by_class"]
    nbytes = outcome["bytes_by_class"]
    delivery_times = outcome["delivery_times"]
    return {
        "mode": mode,
        "n_nodes": columns * rows,
        "grid": f"{columns}x{rows}",
        "region": region,
        "duration": duration,
        "shards": shards,
        "seed": seed,
        "control_messages": msgs["interest"] + msgs["control"],
        "control_bytes": nbytes["interest"] + nbytes["control"],
        "messages_by_class": msgs,
        "bytes_by_class": nbytes,
        "offered": offered,
        "delivered": outcome["app_delivered"],
        "delivery_ratio": (
            round(outcome["app_delivered"] / offered, 4) if offered else 0.0
        ),
        "time_to_first_data": (
            round(min(delivery_times) - SEND_START, 3)
            if delivery_times
            else None
        ),
        "hierarchy": outcome["hierarchy"],
        "wall_seconds": round(wall, 2),
    }


def _format_row(row: Dict[str, Any]) -> str:
    ttfd = row["time_to_first_data"]
    return (
        f"{row['grid']:>7} {row['mode']:>10}: "
        f"ctrl {row['control_messages']:>6} msgs "
        f"/ {row['control_bytes']:>8} B, "
        f"delivery {row['delivered']:>4}/{row['offered']} "
        f"({row['delivery_ratio']:.0%}), "
        f"first data {'-' if ttfd is None else f'{ttfd:.1f}s'} "
        f"[{row['wall_seconds']:.0f}s wall]"
    )


def _reduction(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-grid control reduction factors relative to flat."""
    by_grid: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for row in rows:
        by_grid.setdefault(row["grid"], {})[row["mode"]] = row
    summary = {}
    for grid, modes in by_grid.items():
        flat = modes.get("flat")
        if flat is None:
            continue
        entry = {}
        for mode in ("clustered", "rendezvous"):
            other = modes.get(mode)
            if other is None or not other["control_messages"]:
                continue
            entry[mode] = {
                "control_message_reduction": round(
                    flat["control_messages"] / other["control_messages"], 2
                ),
                "control_byte_reduction": round(
                    flat["control_bytes"] / other["control_bytes"], 2
                ),
                "delivery_vs_flat": round(
                    (other["delivery_ratio"] - flat["delivery_ratio"])
                    / flat["delivery_ratio"],
                    4,
                )
                if flat["delivery_ratio"]
                else None,
            }
        summary[grid] = entry
    return summary


def flat_equivalence(
    columns: int = 10,
    rows: int = 10,
    region: int = 5,
    duration: float = 24.0,
    seed: int = 7,
) -> Tuple[bool, Dict[str, Any], Dict[str, Any]]:
    """Flat-mode hierarchy outcome vs the classic regional scenario.

    The hierarchy scenario with ``mode=flat`` installs no policy; the
    keys both scenarios share must match bit for bit, or the hooks in
    the diffusion core are not inert.
    """
    shared = dict(
        columns=columns, rows=rows, spacing=15.0, region=region,
        duration=duration, send_interval=2.0,
    )
    classic = run_oracle(
        ShardPlan(
            scenario="regional", params=dict(shared), seed=seed,
            duration=duration, shards=1,
        )
    )
    flat = run_oracle(
        ShardPlan(
            scenario="hierarchy", params=dict(shared, mode="flat"),
            seed=seed, duration=duration, shards=1,
        )
    )
    flat_subset = {key: flat[key] for key in classic}
    return flat_subset == classic, classic, flat_subset


def run_bench() -> Dict[str, Any]:
    results: List[Dict[str, Any]] = []
    for columns, rows, shards in ((16, 16, 1), (32, 32, 4)):
        # Scale the rendezvous grid with the deployment so region cells
        # keep a roughly constant node count.
        regions = max(4, columns * 3 // 16)
        for mode in MODES:
            row = run_trial(
                mode, columns, rows, region=8, duration=90.0,
                send_interval=2.0, seed=3, shards=shards,
                hierarchy={"regions": regions},
            )
            results.append(row)
            print(_format_row(row))

    identical, _, _ = flat_equivalence()
    print(f"flat-mode bit-identity vs classic regional scenario: {identical}")

    return {
        "benchmark": (
            "hierarchical interest propagation vs flat flooding "
            "(regional workload, sharded kernel)"
        ),
        "workload": (
            "one local source->sink pair per region block of the grid, "
            "payloads every 2s; control = interest transmissions + "
            "cluster-control announcements"
        ),
        "hierarchy_params": BENCH_HIERARCHY,
        "flat_mode_bit_identical": identical,
        "reduction_vs_flat": _reduction(results),
        "results": results,
    }


def run_smoke() -> int:
    """Deterministic CI gate (counters and invariants, never wall time)."""
    columns = rows = 10
    region = 5
    duration = 24.0
    seed = 7
    hierarchy = {
        "announce_interval": 6.0,
        "announce_jitter": 1.0,
        "refresh_damping": 12.0,
    }

    identical, classic, flat_subset = flat_equivalence(
        columns, rows, region, duration, seed
    )
    if not identical:
        print(
            "FAIL: hierarchy scenario in flat mode diverged from the "
            f"classic regional scenario:\n  classic: {classic}\n"
            f"  flat:    {flat_subset}",
            file=sys.stderr,
        )
        return 1
    print("hierarchy smoke: flat mode bit-identical to classic regional")

    for mode in ("clustered", "rendezvous"):
        params = _trial_params(
            mode, columns, rows, region, duration, 2.0, hierarchy
        )
        plan = ShardPlan(
            scenario="hierarchy", params=params, seed=seed,
            duration=duration, shards=1,
        )
        oracle = run_oracle(plan)
        if oracle["app_delivered"] <= 0:
            print(f"FAIL: {mode} mode delivered no data", file=sys.stderr)
            return 1
        h = oracle["hierarchy"]
        if mode == "clustered":
            if h["heads"] <= 0:
                print("FAIL: no cluster heads elected", file=sys.stderr)
                return 1
            if h["heads"] >= columns * rows:
                print(
                    "FAIL: every node claims headship — election never "
                    "converged", file=sys.stderr,
                )
                return 1
            if h["suppressed_interests"] <= 0:
                print(
                    "FAIL: clustered mode suppressed no interest "
                    "rebroadcasts", file=sys.stderr,
                )
                return 1
        else:
            if h["suppressed_interests"] <= 0:
                print(
                    "FAIL: rendezvous mode suppressed no interest "
                    "rebroadcasts", file=sys.stderr,
                )
                return 1
        sharded = run_sharded(
            ShardPlan(
                scenario="hierarchy", params=params, seed=seed,
                duration=duration, shards=2,
            )
        )
        if sharded["outcome"] != oracle:
            print(
                f"FAIL: sharded {mode} outcome diverged from the "
                f"single-queue oracle:\n  oracle:  {oracle}\n"
                f"  sharded: {sharded['outcome']}",
                file=sys.stderr,
            )
            return 1
        print(
            f"hierarchy smoke {mode}: delivered={oracle['app_delivered']}, "
            f"heads={h['heads']}, suppressed_interests="
            f"{h['suppressed_interests']}, sharded == oracle"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="hierarchical interest propagation ablation"
    )
    parser.add_argument(
        "--out", default="BENCH_hierarchy.json", help="output JSON path"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=(
            "deterministic CI mode: flat bit-identity, heads elected, "
            "suppression active, delivery > 0, sharded == oracle"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    report = run_bench()
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
