"""Radio-channel benchmark (the engine behind BENCH_channel.json).

The reference channel pays O(N) per transmitted fragment (every
attached modem is probed for audibility) and O(N) per carrier-sense
query (every modem is scanned for an audible transmitter), so the cost
of one hop grows with the size of the *whole network* even though radio
range is local.  The neighborhood fast path
(:mod:`repro.radio.neighborhood`) replaces both scans with cached
audibility/carrier sets and an active-transmitter registry, making the
per-fragment cost O(audible) and the carrier-sense cost O(active
transmitters).

Two engines run each scenario on identical seeds, verdict-checked
against each other before reporting:

* ``reference`` — :class:`~repro.radio.ReferenceChannel`, the O(N)
  per-fragment scan;
* ``indexed`` — :class:`~repro.radio.Channel`, the neighborhood fast
  path every production run uses.

Three scenarios:

* **radio flood** (primary) — every node broadcasts a periodic beacon
  through its CSMA MAC on a grid whose radio neighborhood stays
  constant while N grows.  This drives the channel directly (no
  diffusion on top), so the measured speedup is the channel's own:
  the per-fragment audibility scan and the per-backoff carrier scan
  dominate the run.
* **mobile radio flood** — the same flood while one node walks across
  the grid, so the propagation epoch changes every few milliseconds of
  simulated time; shows what the index pays per epoch (set builds and
  ``link_prr_bound`` probes, which stay local to the mover).
* **diffusion** (secondary) — the full stack (diffusion → frag → MAC →
  radio) with two corner sources streaming to a corner sink; shows
  what the fast path buys a whole-application run where upper layers
  share the bill.

Reported per scenario and size:

* **wall time** (best of ``REPS`` runs, to suppress scheduler noise)
  and the derived end-to-end speedup;
* **carrier-sense links examined per query** — deterministic, so it is
  what the CI perf smoke asserts on (wall time would flake): the
  reference scan examines ~N-1 links per query at every size, the
  indexed scan only the currently active transmitters.

``python -m repro.experiments.channelbench`` writes BENCH_channel.json;
``--smoke`` runs the deterministic equivalence + scan-cost checks only.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

import repro.core.messages as core_messages
from repro.core import DiffusionConfig
from repro.mac import CsmaMac
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio import (
    Channel,
    DistancePropagation,
    Modem,
    ReferenceChannel,
    Topology,
)
from repro.sim import SeedSequence, Simulator
from repro.testbed import SensorNetwork

#: (columns, rows) grids reported in BENCH_channel.json.
DEFAULT_GRIDS: Tuple[Tuple[int, int], ...] = ((7, 2), (10, 5), (15, 10))

#: the benchmark's engine axis, in report order.
ENGINES: Tuple[str, ...] = ("reference", "indexed")
_CHANNEL_CLS = {"reference": ReferenceChannel, "indexed": Channel}

#: wall-time runs per engine; the best is reported.
REPS = 3

#: flood grid spacing: each node hears only its immediate neighbors
#: (~4-8 nodes) regardless of N, so any per-fragment cost growth is
#: pure channel-scan overhead.
FLOOD_SPACING = 26.0
FLOOD_BEACON_INTERVAL = 0.5

#: mobile flood: node 0 walks the top row, one step this often.  Every
#: step is a new propagation epoch, so what the index pays per epoch
#: (its set builds and their bound probes) is what the row shows.
MOVE_INTERVAL = 0.05

#: diffusion scenario spacing keeps multihop links solid.
DIFFUSION_SPACING = 18.0

#: diffusion timers compressed so a short run exercises interest
#: flooding, reinforcement, and steady-state data forwarding.
CONFIG = DiffusionConfig(
    interest_interval=8.0,
    interest_jitter=0.3,
    exploratory_interval=8.0,
    gradient_timeout=25.0,
    reinforced_timeout=20.0,
)


def _channel_outcome(channel: Channel, extra: Dict) -> Dict:
    outcome = {
        "sent": channel.fragments_sent,
        "delivered": channel.fragments_delivered,
        "collided": channel.fragments_collided,
        "lost": channel.fragments_lost,
    }
    outcome.update(extra)
    return outcome


def _result(channel: Channel, wall: float, outcome: Dict) -> Dict:
    result = {
        "wall_seconds": wall,
        "outcome": outcome,
        "carrier_queries": channel.carrier_queries,
        "carrier_checks_per_query": (
            channel.carrier_checks / channel.carrier_queries
            if channel.carrier_queries
            else 0.0
        ),
    }
    index = getattr(channel, "index", None)
    if index is not None:
        memo_total = index.memo_hits + index.memo_misses
        result["index"] = {
            "rebuilds": index.rebuilds,
            "set_builds": index.set_builds,
            "bound_probes": index.bound_probes,
            "memo_hit_rate": (
                index.memo_hits / memo_total if memo_total else 0.0
            ),
        }
    return result


def run_flood(
    columns: int,
    rows: int,
    engine="indexed",
    duration: float = 30.0,
    seed: int = 1,
    mobile: bool = False,
) -> Dict:
    """Every node beacons through its CSMA MAC; no upper layers."""
    topo = Topology.grid(columns, rows, spacing=FLOOD_SPACING)
    sim = Simulator()
    seeds = SeedSequence(seed)
    channel = _CHANNEL_CLS[engine](
        sim, DistancePropagation(topo, seed=seed), seeds=seeds
    )
    heard = [0]

    def on_receive(payload, src, nbytes, link_dst):
        heard[0] += 1

    macs = {}
    for node_id in topo.node_ids():
        modem = Modem(sim, channel, node_id)
        modem.receive_callback = on_receive
        macs[node_id] = CsmaMac(
            sim, modem, rng=seeds.stream(f"mac:{node_id}")
        )

    interval = FLOOD_BEACON_INTERVAL

    def beacon_tick(node_id, rng):
        macs[node_id].enqueue(("beacon", node_id), 27)
        sim.schedule(
            interval * (0.5 + rng.random()), beacon_tick, node_id, rng,
            name="beacon",
        )

    for node_id in topo.node_ids():
        rng = seeds.stream(f"beacon:{node_id}")
        sim.schedule(
            rng.random() * interval, beacon_tick, node_id, rng, name="beacon"
        )

    if mobile:
        steps = int(duration / MOVE_INTERVAL)
        width = FLOOD_SPACING * (columns - 1)
        for step in range(1, steps):
            sim.schedule_at(
                step * MOVE_INTERVAL, topo.move_node, 0,
                width * step / steps, 0.0, name="move", priority=-2,
            )

    start = time.perf_counter()
    sim.run(until=duration)
    wall = time.perf_counter() - start
    return _result(
        channel, wall, _channel_outcome(channel, {"heard": heard[0]})
    )


#: the flood with one node on the move throughout.
run_mobile_flood = functools.partial(run_flood, mobile=True)


def run_diffusion(
    columns: int,
    rows: int,
    engine="indexed",
    duration: float = 30.0,
    seed: int = 1,
) -> Dict:
    """Full-stack run: two corner sources stream to a corner sink."""
    # msg ids draw from a process-global counter; restart it so paired
    # runs are bit-identical, not merely equivalent.
    core_messages._msg_counter = itertools.count(1)
    topo = Topology.grid(columns, rows, spacing=DIFFUSION_SPACING)
    net = SensorNetwork(
        topo, config=CONFIG, seed=seed, channel_cls=_CHANNEL_CLS[engine],
    )
    n_nodes = columns * rows

    delivered = []
    sink = 0
    sources = [n_nodes - 1, columns - 1]
    sub = AttributeVector.builder().eq(Key.TYPE, "chanbench").build()
    net.api(sink).subscribe(
        sub, lambda attrs, msg: delivered.append(net.sim.now)
    )
    for source in sources:
        pub = net.api(source).publish(
            AttributeVector.builder().actual(Key.TYPE, "chanbench").build()
        )
        sends = int((duration - 2.0) / 0.5)
        for i in range(sends):
            net.sim.schedule(
                2.0 + i * 0.5, net.api(source).send, pub,
                AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
            )

    start = time.perf_counter()
    net.run(until=duration)
    wall = time.perf_counter() - start
    return _result(
        net.channel,
        wall,
        _channel_outcome(net.channel, {"app_delivered": len(delivered)}),
    )


def run_engines(
    runner: Callable[..., Dict],
    columns: int,
    rows: int,
    duration: float = 30.0,
    seed: int = 1,
    reps: int = 1,
) -> Dict[str, Dict]:
    """Run one scenario under both engines, verdict-checked.

    The fast path's outcome must equal the reference's — the whole
    benchmark is void if it changes any verdict.  With ``reps > 1``
    each engine runs that many times and reports its best wall time
    (outcomes are deterministic, so they are checked on every rep).
    """
    best: Dict[str, Dict] = {}
    for _ in range(reps):
        for engine in ENGINES:
            result = runner(columns, rows, engine, duration, seed)
            baseline = best.get("reference", result)  # reference runs first
            if result["outcome"] != baseline["outcome"]:
                raise AssertionError(
                    f"{engine} channel diverged from reference on the "
                    f"{columns}x{rows} grid: {baseline['outcome']} != "
                    f"{result['outcome']}"
                )
            held = best.get(engine)
            if held is None or result["wall_seconds"] < held["wall_seconds"]:
                best[engine] = result
    return best


def _engine_cell(result: Dict) -> Dict:
    cell = {
        "wall_seconds": round(result["wall_seconds"], 3),
        "carrier_checks_per_query": round(
            result["carrier_checks_per_query"], 2
        ),
    }
    if "index" in result:
        cell.update(result["index"])
    return cell


def _report_row(
    scenario: str, columns: int, rows: int, results: Dict[str, Dict]
) -> Dict:
    reference = results["reference"]
    fast = results["indexed"]
    return {
        "scenario": scenario,
        "grid": f"{columns}x{rows}",
        "n_nodes": columns * rows,
        "outcome": fast["outcome"],
        "reference": _engine_cell(reference),
        "indexed": _engine_cell(fast),
        "speedup": round(
            reference["wall_seconds"] / fast["wall_seconds"], 2
        ),
    }


def run_bench(
    grids=DEFAULT_GRIDS, duration: float = 30.0, seed: int = 1
) -> Dict:
    results: List[Dict] = []
    for columns, rows in grids:
        engines = run_engines(
            run_flood, columns, rows, duration, seed, reps=REPS
        )
        results.append(_report_row("radio-flood", columns, rows, engines))
    # The largest flood again with a node on the move, and one
    # full-stack data point.
    columns, rows = grids[-1]
    engines = run_engines(
        run_mobile_flood, columns, rows, duration, seed, reps=REPS
    )
    results.append(
        _report_row("radio-flood-mobile", columns, rows, engines)
    )
    engines = run_engines(
        run_diffusion, columns, rows, duration, seed, reps=REPS
    )
    results.append(_report_row("diffusion", columns, rows, engines))
    return {
        "benchmark": "radio channel delivery + carrier sense",
        "workloads": {
            "radio-flood": (
                f"every node broadcasts a 27-byte beacon every "
                f"~{FLOOD_BEACON_INTERVAL}s through CSMA on a grid at "
                f"spacing {FLOOD_SPACING} (constant radio neighborhood), "
                f"{duration}s simulated"
            ),
            "radio-flood-mobile": (
                f"radio-flood with node 0 walking the top row, one "
                f"step (= one propagation epoch) every {MOVE_INTERVAL}s"
            ),
            "diffusion": (
                f"full diffusion stack at spacing {DIFFUSION_SPACING}, two "
                f"corner sources sending every 0.5s to a corner sink, "
                f"{duration}s simulated"
            ),
        },
        "wall_time": f"best of {REPS} runs per engine",
        "seed": seed,
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="radio channel benchmark")
    parser.add_argument(
        "--out", default="BENCH_channel.json", help="output JSON path"
    )
    parser.add_argument(
        "--duration", type=float, default=30.0,
        help="simulated seconds per run",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "deterministic CI mode: assert indexed == reference channel "
            "verdicts on two grid sizes and that the reference "
            "carrier-sense scan cost grows with N while the indexed scan "
            "cost tracks active transmitters (counters, not wall time, "
            "so it cannot flake)"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        smoke_duration = 12.0
        rows = []
        for columns, nrows in ((7, 2), (10, 5)):
            results = run_engines(run_flood, columns, nrows, smoke_duration)
            reference, fast = results["reference"], results["indexed"]
            rows.append((reference, fast))
            n = columns * nrows
            print(
                f"channel smoke flood {columns}x{nrows}: outcomes identical "
                f"({fast['outcome']['delivered']} delivered, "
                f"{fast['outcome']['collided']} collided), carrier "
                f"checks/query reference={reference['carrier_checks_per_query']:.2f} "
                f"indexed={fast['carrier_checks_per_query']:.2f}"
            )
            # The reference scan walks the whole modem table per query
            # (early exit on a busy carrier keeps it just under N-1).
            if reference["carrier_checks_per_query"] < (n - 1) / 2:
                print(
                    f"FAIL: reference scan should examine ~{n - 1} links "
                    f"per query", file=sys.stderr,
                )
                return 1
            # The indexed scan examines only currently active
            # transmitters (its checks/query IS the mean number on the
            # air, by construction), so it must sit far below the
            # whole-table scan at every size.
            if fast["carrier_checks_per_query"] > reference["carrier_checks_per_query"] / 8:
                print(
                    f"FAIL: indexed carrier-sense cost "
                    f"({fast['carrier_checks_per_query']:.2f} checks/query) "
                    f"is not well below the reference scan "
                    f"({reference['carrier_checks_per_query']:.2f})",
                    file=sys.stderr,
                )
                return 1
        small, large = rows[0], rows[1]
        small_ref = small[0]["carrier_checks_per_query"]
        large_ref = large[0]["carrier_checks_per_query"]
        if large_ref < 2.0 * small_ref:
            print(
                f"FAIL: reference carrier-sense cost should grow with N "
                f"({small_ref:.2f} -> {large_ref:.2f} checks/query)",
                file=sys.stderr,
            )
            return 1
        # Mobility: every step of the mover is a new epoch.  Verdicts
        # must still equal the reference scan's, and a set build may
        # probe only the sender's neighbourhood — 3x3 reach-sized cells
        # of at most 4 grid points each — however large N is.
        results = run_engines(run_mobile_flood, 16, 16, smoke_duration)
        index = results["indexed"]["index"]
        probes_per_build = index["bound_probes"] / index["set_builds"]
        print(
            f"channel smoke mobile flood 16x16: outcomes identical "
            f"({results['indexed']['outcome']['delivered']} delivered), "
            f"{index['rebuilds']} epochs repaired, "
            f"{probes_per_build:.1f} bound probes per set build"
        )
        if index["rebuilds"] == 0 or probes_per_build > 36:
            print(
                f"FAIL: set builds under mobility should probe the "
                f"sender's neighbourhood (<= 36 members), not the "
                f"network of 256 ({probes_per_build:.1f} per build, "
                f"{index['rebuilds']} epochs seen)",
                file=sys.stderr,
            )
            return 1
        # Full-stack equivalence on one small grid (the pytest suite
        # covers this in depth; here it guards the CLI wiring).
        run_engines(run_diffusion, 7, 2, smoke_duration)
        print("channel smoke diffusion 7x2: outcomes identical")
        return 0

    report = run_bench(duration=args.duration)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for row in report["results"]:
        line = (
            f"{row['scenario']:>12} {row['n_nodes']:>4} nodes ({row['grid']}): "
            f"{row['reference']['wall_seconds']:>7.3f}s -> "
            f"{row['indexed']['wall_seconds']:>7.3f}s "
            f"({row['speedup']:.2f}x)"
        )
        line += (
            f", carrier checks/query "
            f"{row['reference']['carrier_checks_per_query']} -> "
            f"{row['indexed']['carrier_checks_per_query']}"
        )
        print(line)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
