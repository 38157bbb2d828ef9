"""Built-in campaigns: the benchmark workloads as declarative sweeps.

Each trial function is module-level, takes ``(params, seed)``, and
returns a JSON-serializable dict, so it can be dispatched to worker
processes and its results content-addressed.  The campaign factories
below bundle them with the parameter grids the benchmarks and paper
tables use; ``benchmarks/`` now runs these instead of private copies.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.aggregate import format_pivot, format_table, aggregate, pivot
from repro.campaign.spec import Campaign
from repro.sim.rng import make_rng

# ---------------------------------------------------------------------------
# demo — a trivially cheap campaign for smoke tests and CI


def demo_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Deterministic toy trial; knobs to exercise the pool's edge cases.

    ``spin`` busy-waits that many seconds (timeout tests), ``fail``
    raises, and ``crash`` kills the worker process outright.
    """
    if params.get("crash"):
        os._exit(13)
    if params.get("fail"):
        raise RuntimeError("demo trial asked to fail")
    spin = params.get("spin", 0.0)
    if spin:
        deadline = time.perf_counter() + spin
        while time.perf_counter() < deadline:
            pass
    rng = make_rng(seed, "demo")
    x = params.get("x", 1)
    return {"x": x, "value": x * rng.random(), "seed": seed}


def demo_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    return Campaign(
        name="demo",
        trial="repro.campaign.builtin:demo_trial",
        grid={"x": [1, 2] if quick else [1, 2, 3, 4]},
        replicates=2,
        root_seed=root_seed,
        description="cheap deterministic smoke campaign",
    )


# ---------------------------------------------------------------------------
# scale-aggregation — the simulation-era 49-node savings study
# (Section 6.1's cited 3-5x band; see benchmarks/test_scale_aggregation.py)

SCALE_GRID = 7
SCALE_DATA_INTERVAL = 0.5
SCALE_EXPLORATORY = 50.0


def scale_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One 49-node grid run: 5 sources, 5 sinks, exploratory:data 1:100."""
    from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
    from repro.filters import SuppressionFilter
    from repro.naming import AttributeVector
    from repro.naming.keys import Key
    from repro.sim import Simulator
    from repro.testbed import IdealNetwork

    suppression = bool(params["suppression"])
    duration = float(params.get("duration", 300.0))
    grid = int(params.get("grid", SCALE_GRID))

    sim = Simulator()
    net = IdealNetwork(sim, delay=0.005)
    config = DiffusionConfig(
        interest_interval=50.0,
        gradient_timeout=120.0,
        interest_jitter=1.0,
        exploratory_interval=SCALE_EXPLORATORY,
        reinforcement_jitter=0.2,
    )
    total = grid * grid
    nodes, apis = {}, {}
    match = AttributeVector.builder().eq(Key.TYPE, "det").build()
    for i in range(total):
        nodes[i] = DiffusionNode(sim, i, net.add_node(i), config=config)
        apis[i] = DiffusionRouting(nodes[i])
        if suppression:
            SuppressionFilter(nodes[i], match_attrs=match)
    for i in range(total):
        if i % grid < grid - 1:
            net.connect(i, i + 1)
        if i < total - grid:
            net.connect(i, i + grid)
    sinks = [k * grid for k in range(5)]              # left edge
    sources = [(k + 1) * grid - 1 for k in range(5)]  # right edge
    received = {sink: set() for sink in sinks}
    sub = (
        AttributeVector.builder()
        .eq(Key.TYPE, "det")
        .actual(Key.INTERVAL, int(SCALE_DATA_INTERVAL * 1000))
        .build()
    )
    for sink in sinks:
        apis[sink].subscribe(
            sub,
            lambda attrs, msg, k=sink: received[k].add(
                attrs.value_of(Key.SEQUENCE)
            ),
        )
    pubs = {
        src: apis[src].publish(
            AttributeVector.builder().actual(Key.TYPE, "det").build()
        )
        for src in sources
    }
    count = int((duration - 5.0) / SCALE_DATA_INTERVAL)
    for sequence in range(count):
        when = 5.0 + sequence * SCALE_DATA_INTERVAL
        for src in sources:
            sim.schedule(
                when, apis[src].send, pubs[src],
                AttributeVector.builder().actual(Key.SEQUENCE, sequence).build(),
                80,  # pad toward the study's 64-127 B messages
            )
    sim.run(until=duration)
    total_bytes = sum(node.stats.bytes_sent for node in nodes.values())
    distinct = len(set().union(*received.values()))
    return {
        "bytes": total_bytes,
        "distinct": distinct,
        "generated": count,
        "bytes_per_event": total_bytes / max(1, distinct),
    }


def scale_campaign(
    quick: bool = False,
    root_seed: int = 1,
    duration: Optional[float] = None,
) -> Campaign:
    if duration is None:
        duration = 120.0 if quick else 300.0
    return Campaign(
        name="scale-aggregation",
        trial="repro.campaign.builtin:scale_trial",
        grid={"suppression": [True, False]},
        fixed={"duration": duration},
        seeds=[0],
        description="49-node simulation-scale aggregation savings (3-5x band)",
    )


# ---------------------------------------------------------------------------
# ablation-dutycycle — energy vs delivery across MAC duty cycles
# (see benchmarks/test_ablation_dutycycle.py)


def dutycycle_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A 4-hop line pushing one event every 6 s, like the Fig 8 source."""
    from repro import AttributeVector, Key
    from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
    from repro.energy import EnergyLedger
    from repro.link import FragmentationLayer
    from repro.mac import CsmaMac, DutyCycledCsmaMac
    from repro.radio import Channel, DistancePropagation, Modem, Topology
    from repro.sim import SeedSequence, Simulator, TraceBus

    duty_cycle = float(params["duty_cycle"])
    duration = float(params.get("duration", 600.0))
    seed = int(params.get("seed", seed))

    topology = Topology.line(5, spacing=15.0)
    sim = Simulator()
    seeds = SeedSequence(seed)
    trace = TraceBus()
    channel = Channel(sim, DistancePropagation(topology, seed=seed),
                      seeds=seeds, trace=trace)
    apis, ledgers = {}, {}
    for node_id in topology.node_ids():
        ledger = EnergyLedger()
        ledgers[node_id] = ledger
        modem = Modem(sim, channel, node_id, energy=ledger)
        if duty_cycle >= 1.0:
            mac = CsmaMac(sim, modem, rng=seeds.stream(f"mac:{node_id}"))
        else:
            mac = DutyCycledCsmaMac(
                sim, modem, duty_cycle=duty_cycle, period=1.0,
                rng=seeds.stream(f"mac:{node_id}"),
            )
            ledger.duty_cycle = duty_cycle
        frag = FragmentationLayer(sim, mac, node_id)
        node = DiffusionNode(sim, node_id, frag,
                             config=DiffusionConfig(), trace=trace,
                             rng=seeds.stream(f"diff:{node_id}"))
        apis[node_id] = DiffusionRouting(node)

    received: List[Any] = []
    sub = AttributeVector.builder().eq(Key.TYPE, "det").build()
    apis[0].subscribe(sub, lambda a, m: received.append(a))
    pub = apis[4].publish(
        AttributeVector.builder().actual(Key.TYPE, "det").build()
    )
    sent = 0
    t = 5.0
    while t < duration:
        sim.schedule(
            t, apis[4].send, pub,
            AttributeVector.builder().actual(Key.SEQUENCE, sent).build(),
        )
        sent += 1
        t += 6.0
    sim.run(until=duration)
    energy = sum(l.energy(elapsed=duration) for l in ledgers.values())
    return {
        "duty_cycle": duty_cycle,
        "delivery": len(received) / sent,
        "energy": energy,
    }


def dutycycle_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    return Campaign(
        name="ablation-dutycycle",
        trial="repro.campaign.builtin:dutycycle_trial",
        grid={"duty_cycle": [1.0, 0.5, 0.2, 0.1]},
        fixed={"duration": 300.0 if quick else 600.0},
        seeds=[5],
        description="duty-cycled MAC energy vs delivery trade-off",
    )


# ---------------------------------------------------------------------------
# ablation-push-pull — one-phase push vs two-phase pull crossover
# (see benchmarks/test_ablation_push_pull.py)


def pushpull_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Hub topology; sink:source ratio given as a ``"SxD"`` shape."""
    from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
    from repro.naming import AttributeVector
    from repro.naming.keys import Key
    from repro.sim import Simulator
    from repro.testbed import IdealNetwork

    push = bool(params["push"])
    n_sinks, n_sources = (int(part) for part in params["shape"].split("x"))
    duration = float(params.get("duration", 300.0))

    sub_attrs = AttributeVector.builder().eq(Key.TYPE, "t").build()
    pub_attrs = AttributeVector.builder().actual(Key.TYPE, "t").build()

    sim = Simulator()
    net = IdealNetwork(sim, delay=0.01)
    config = DiffusionConfig(
        push_mode=push,
        reinforcement_jitter=0.05,
        exploratory_interval=20.0,
        interest_interval=20.0,
        gradient_timeout=60.0,
        interest_jitter=0.1,
    )
    total = n_sinks + n_sources + 1
    nodes, apis = {}, {}
    for i in range(total):
        nodes[i] = DiffusionNode(sim, i, net.add_node(i), config=config)
        apis[i] = DiffusionRouting(nodes[i])
    hub = total - 1
    for i in range(total - 1):
        net.connect(i, hub)
    received: List[Any] = []
    for sink in range(n_sinks):
        apis[sink].subscribe(sub_attrs, lambda a, m: received.append(a))
    for s in range(n_sources):
        source = n_sinks + s
        pub = apis[source].publish(pub_attrs)
        for i in range(int(duration // 10)):
            sim.schedule(
                1.0 + i * 10.0, apis[source].send, pub,
                AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
            )
    sim.run(until=duration)
    return {
        "bytes": sum(n.stats.bytes_sent for n in nodes.values()),
        "received": len(received),
    }


def pushpull_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    return Campaign(
        name="ablation-push-pull",
        trial="repro.campaign.builtin:pushpull_trial",
        grid={
            "push": [False, True],
            "shape": ["1x6", "3x3", "6x1", "0x6"],
        },
        fixed={"duration": 150.0 if quick else 300.0},
        seeds=[0],
        description="push vs pull diffusion as the sink:source ratio varies",
    )


# ---------------------------------------------------------------------------
# fig8 — the paper's Figure 8 sweep, seeds pinned like the original harness


def fig8_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One Figure 8 trial, flattened to a JSON-safe dict."""
    from dataclasses import asdict

    from repro.experiments.fig8_aggregation import run_fig8_trial

    result = run_fig8_trial(
        sources=int(params["sources"]),
        suppression=bool(params["suppression"]),
        seed=seed,
        duration=float(params.get("duration", 1800.0)),
    )
    payload = asdict(result)
    payload["bytes_per_event"] = result.bytes_per_event
    payload["delivery_ratio"] = result.delivery_ratio
    return payload


def fig8_campaign(quick: bool = False, root_seed: int = 100) -> Campaign:
    trials = 2 if quick else 5
    return Campaign(
        name="fig8",
        trial="repro.campaign.builtin:fig8_trial",
        grid={"sources": [1, 2, 3, 4], "suppression": [True, False]},
        fixed={"duration": 240.0 if quick else 1800.0},
        seeds=[root_seed + trial for trial in range(trials)],
        description="Figure 8: bytes per distinct event vs number of sources",
    )


# ---------------------------------------------------------------------------
# resilience — fault injection with repair-time verification
# (exploratory-interval sensitivity across the builtin fault plans)


def resilience_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One fault on the standard grid, flattened for aggregation.

    ``time_to_repair``/``repair_intervals`` use -1.0 as the "never
    repaired" sentinel (aggregation needs numbers, not nulls); delivery
    ratios use 0.0 when nothing was originated in the window.
    """
    from repro.faults import resilience_run

    result = resilience_run(
        fault=str(params["fault"]),
        seed=int(params.get("seed", seed)),
        exploratory_interval=float(params["exploratory_interval"]),
        duration=float(params.get("duration", 160.0)),
    )
    fault = result["report"]["faults"][0]
    ttr = fault["time_to_repair"]
    intervals = fault["repair_intervals"]
    return {
        "fault": result["fault"],
        "exploratory_interval": result["exploratory_interval"],
        "overall_delivery": result["report"]["overall_delivery"] or 0.0,
        "delivery_during": fault["delivery_during"] or 0.0,
        "delivery_after": fault["delivery_after"] or 0.0,
        "time_to_repair": ttr if ttr is not None else -1.0,
        "repair_intervals": intervals if intervals is not None else -1.0,
        "violations": len(result["violations"]),
        "invariants_ok": result["invariants_ok"],
    }


def resilience_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    return Campaign(
        name="resilience",
        trial="repro.campaign.builtin:resilience_trial",
        grid={
            "fault": ["crash", "link-flap", "partition"],
            "exploratory_interval": (
                [5.0, 10.0] if quick else [5.0, 10.0, 20.0]
            ),
        },
        fixed={"duration": 120.0 if quick else 200.0},
        seeds=[root_seed],
        description="repair time and delivery under faults vs exploratory interval",
    )


# ---------------------------------------------------------------------------
# hierarchy — propagation-mode ablation (flat / clustered / rendezvous)

#: first application send of the regional workload (the ``send_start``
#: default of :data:`repro.shard.scenario.STREAM_DEFAULTS`).
HIERARCHY_SEND_START = 2.0

#: announcements at 3x the interest interval (their only steady-state
#: job is liveness), refresh damping past the second sink refresh but
#: safely inside the gradient timeout.
HIERARCHY_TUNING = {
    "announce_interval": 24.0,
    "announce_jitter": 3.0,
    "refresh_damping": 17.0,
}


def hierarchy_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One propagation mode on the regional workload (one local
    source→sink pair per region block), via the sharded kernel;
    flattened for aggregation.

    Control traffic is interest transmissions plus cluster-control
    announcements; ``time_to_first_data`` runs from the first
    application send to the first sink delivery (-1.0 = none).
    """
    from repro.shard import ShardPlan, run_oracle, run_sharded

    mode = str(params["mode"])
    columns, rows = int(params["columns"]), int(params["rows"])
    region = int(params.get("region", 8))
    duration = float(params.get("duration", 90.0))
    send_interval = float(params.get("send_interval", 2.0))
    shards = int(params.get("shards", 1))
    plan = ShardPlan(
        scenario="hierarchy",
        params={
            "columns": columns,
            "rows": rows,
            "spacing": 15.0,
            "region": region,
            "duration": duration,
            "send_interval": send_interval,
            "mode": mode,
            # The rendezvous grid grows with the deployment so region
            # cells keep a roughly constant node count.
            "hierarchy": dict(
                HIERARCHY_TUNING, regions=max(4, columns * 3 // 16)
            ),
        },
        seed=seed,
        duration=duration,
        shards=shards,
    )
    outcome = run_sharded(plan)["outcome"] if shards > 1 else run_oracle(plan)

    pairs = len(range(0, rows - region + 1, region)) * len(
        range(0, columns - region + 1, region)
    )
    offered = pairs * int((duration - HIERARCHY_SEND_START) / send_interval)
    messages = outcome["messages_by_class"]
    nbytes = outcome["bytes_by_class"]
    arrivals = outcome["delivery_times"]
    h = outcome["hierarchy"]
    return {
        "mode": mode,
        "n_nodes": columns * rows,
        "control_messages": messages["interest"] + messages["control"],
        "control_bytes": nbytes["interest"] + nbytes["control"],
        "delivered": outcome["app_delivered"],
        "delivery_ratio": (
            round(outcome["app_delivered"] / offered, 4) if offered else 0.0
        ),
        "time_to_first_data": (
            round(min(arrivals) - HIERARCHY_SEND_START, 3)
            if arrivals
            else -1.0
        ),
        "heads": h["heads"],
        "reelections": h["reelections"],
        "suppressed_interests": h["suppressed_interests"],
    }


def hierarchy_campaign(quick: bool = False, root_seed: int = 3) -> Campaign:
    if quick:
        grid = {"mode": ["flat", "clustered", "rendezvous"]}
        fixed = {"columns": 10, "rows": 10, "region": 5, "duration": 30.0}
    else:
        # 256 to 1024 nodes through four shards: the cross product of
        # the sides, so the 512-node rectangles come along.
        grid = {
            "mode": ["flat", "clustered", "rendezvous"],
            "columns": [16, 32],
            "rows": [16, 32],
        }
        fixed = {"region": 8, "duration": 90.0, "shards": 4}
    return Campaign(
        name="hierarchy",
        trial="repro.campaign.builtin:hierarchy_trial",
        grid=grid,
        fixed=fixed,
        seeds=[root_seed],
        description=(
            "control overhead and delivery across interest propagation "
            "modes on the regional workload"
        ),
    )


# ---------------------------------------------------------------------------
# dtn — disruption-tolerant transfer: custody vs the legacy stack


def dtn_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One bulk transfer under a repeating partition, flattened for
    aggregation.

    ``completed_at`` uses -1.0 as the "never completed" sentinel
    (aggregation needs numbers, not nulls).  ``unattributed`` must stay
    zero — every undelivered block is charged to a ``custody.*`` event
    or a per-layer drop reason.
    """
    from repro.dtn.scenario import dtn_run

    result = dtn_run(
        seed=int(params.get("seed", seed)),
        duty=float(params["duty"]),
        custody=bool(params["custody"]),
        mode=str(params.get("mode", "flat")),
        duration=float(params.get("duration", 260.0)),
    )
    stats = result["custody_stats"]
    return {
        "duty": result["duty"],
        "custody": result["custody"],
        "delivered": result["delivered"],
        "delivery_ratio": result["delivery_ratio"],
        "delivered_during_partition": result["delivery_during_partition"],
        "delivered_after_heal": result["delivery_after_partition"],
        "completed_at": (
            result["completed_at"]
            if result["completed_at"] is not None
            else -1.0
        ),
        "custody_accepted": stats["accepted"],
        "custody_depth": stats["depth_high_water"],
        "custody_expired": stats["expired"],
        "reinjections": stats["reinjections"],
        "retransmits": result["transfer"]["retransmits"],
        "unattributed": result["unattributed"],
        "violations": len(result["violations"]),
        "invariants_ok": result["invariants_ok"],
    }


def dtn_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    grid: Dict[str, List[Any]] = {
        "custody": [False, True],
        "duty": [0.0, 0.6] if quick else [0.0, 0.3, 0.6],
    }
    if not quick:
        grid["mode"] = ["flat", "clustered"]
    return Campaign(
        name="dtn",
        trial="repro.campaign.builtin:dtn_trial",
        grid=grid,
        # One horizon for both forms: the custody arm keeps delivering
        # through the final heal window, so a clipped quick horizon
        # under-reports it against a baseline that already stalled.
        fixed={"duration": 260.0},
        seeds=[root_seed],
        description=(
            "bulk-transfer delivery and custody depth vs partition duty "
            "cycle, custody on/off"
        ),
    )


# ---------------------------------------------------------------------------
# registry


CAMPAIGNS: Dict[str, Callable[..., Campaign]] = {
    "demo": demo_campaign,
    "scale-aggregation": scale_campaign,
    "ablation-dutycycle": dutycycle_campaign,
    "ablation-push-pull": pushpull_campaign,
    "fig8": fig8_campaign,
    "resilience": resilience_campaign,
    "hierarchy": hierarchy_campaign,
    "dtn": dtn_campaign,
}


def get_campaign(
    name: str, quick: bool = False, root_seed: Optional[int] = None
) -> Campaign:
    try:
        factory = CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign {name!r}; known: {', '.join(sorted(CAMPAIGNS))}"
        ) from None
    if root_seed is None:
        return factory(quick=quick)
    return factory(quick=quick, root_seed=root_seed)


def _swept(outcomes, names: Sequence[str]) -> Tuple[str, ...]:
    """Those of ``names`` that take more than one value in the run, so a
    table grows a column only for an axis its grid really sweeps."""
    return tuple(
        name
        for name in names
        if len({outcome.spec.params.get(name) for outcome in outcomes}) > 1
    )


def report_table(name: str, report: "CampaignReport") -> str:  # noqa: F821
    """The campaign's headline aggregate table (EXPERIMENTS.md shape)."""
    outcomes = report.outcomes
    if name == "demo":
        rows = aggregate(outcomes, "value", by=("x",))
        return format_table(rows, "value", title="demo: value by x")
    if name == "scale-aggregation":
        rows = aggregate(outcomes, "bytes_per_event", by=("suppression",))
        table = format_table(
            rows, "B/event",
            title="49 nodes, 5 sources, 5 sinks, exploratory:data 1:100",
        )
        by_supp = {row.params["suppression"]: row.ci.mean for row in rows}
        if True in by_supp and False in by_supp and by_supp[True]:
            factor = by_supp[False] / by_supp[True]
            table += f"\nsavings factor: {factor:.1f}x (paper cites 3-5x)"
        return table
    if name == "ablation-dutycycle":
        energy = aggregate(outcomes, "energy", by=("duty_cycle",))
        delivery = aggregate(outcomes, "delivery", by=("duty_cycle",))
        lines = [format_table(energy, "total energy", title="duty-cycle sweep")]
        lines.append(format_table(delivery, "delivery"))
        return "\n".join(lines)
    if name == "ablation-push-pull":
        table = pivot(outcomes, "bytes", row="shape", col="push")
        return format_pivot(
            table, "sinks x srcs",
            title="bytes by shape (pull=False / push=True)",
        )
    if name == "fig8":
        table = pivot(outcomes, "bytes_per_event", row="sources", col="suppression")
        return format_pivot(
            table, "sources",
            title="Figure 8 — bytes/event (suppression True / False)",
        )
    if name == "resilience":
        table = pivot(
            outcomes, "repair_intervals", row="fault", col="exploratory_interval"
        )
        return format_pivot(
            table, "fault",
            title="time-to-repair in exploratory intervals (-1 = never)",
        )
    if name == "dtn":
        by_mode = _swept(outcomes, ("mode",))
        per_mode: Dict[Any, List[Any]] = {}
        for outcome in outcomes:
            per_mode.setdefault(outcome.spec.params.get("mode"), []).append(
                outcome
            )
        title = "delivery ratio vs partition duty (custody False / True)"
        lines = [
            format_pivot(
                pivot(group, "delivery_ratio", row="duty", col="custody"),
                "duty",
                title=f"{title}, {mode}" if by_mode else title,
            )
            for mode, group in sorted(per_mode.items(), key=repr)
        ]
        depth = aggregate(
            outcomes, "custody_depth", by=by_mode + ("duty", "custody")
        )
        unattributed = sum(
            o.result.get("unattributed", 0) for o in outcomes if o.ok
        )
        lines += [
            format_table(depth, "custody depth"),
            f"unattributed losses across all trials: {unattributed}",
        ]
        return "\n".join(lines)
    if name == "hierarchy":
        by = _swept(outcomes, ("columns", "rows")) + ("mode",)
        ctrl = aggregate(outcomes, "control_messages", by=by)
        delivery = aggregate(outcomes, "delivery_ratio", by=by)
        lines = [
            format_table(
                ctrl, "control msgs",
                title="interest + cluster-control transmissions by mode",
            ),
            format_table(delivery, "delivery"),
        ]
        return "\n".join(lines)
    return f"({len([o for o in outcomes if o.ok])} successful trials)"
