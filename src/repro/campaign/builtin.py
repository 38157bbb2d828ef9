"""Built-in campaigns: the benchmark workloads as declarative sweeps.

Each trial function is module-level, takes ``(params, seed)``, and
returns a JSON-serializable dict, so it can be dispatched to worker
processes and its results content-addressed.  Every full-stack campaign
— the paper's Figure 8 and Figure 9 sweeps, ``resilience``, ``dtn``,
``hierarchy``, ``ablation-dutycycle`` — is a grid of plans over the
scenario registry (:mod:`repro.shard.scenario`) run by the one
:func:`plan_trial`, whose result is the plan's whole outcome;
:func:`report_table` reads its tables off those outcomes.  ``demo`` is
a toy.  The rest are trial functions of their own: protocol logic on
an :class:`~repro.testbed.IdealNetwork`, no MAC and no radio
(``scale-aggregation``, ``ablation-push-pull``, ``ablation-latency``,
``ablation-gear``), or a testbed variant no preset param names
(``ablation-reinforcement``, ``ablation-multipath``, ``bulk-transfer``).
``python -m repro experiments`` runs these campaigns and judges the
paper's claims over their outcomes (:mod:`repro.campaign.claims`).
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
# (Section 6.1's cited 3-5x band; the SCALE rows of repro.campaign.claims)

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
# plan grids — a full-stack sweep is a grid of plans over the registry

PLAN_TRIAL = "repro.campaign.builtin:plan_trial"


def plan_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One plan of the scenario registry, run to its whole outcome.

    ``scenario`` names the recipe and ``shards`` (default 1) how it
    executes; every other key is a param of that scenario
    (``python -m repro run --list``).  The result is what ``repro run
    --out`` saves, so ``repro report`` renders a store entry too.
    """
    from repro.shard import ShardPlan, run_oracle, run_sharded

    params = dict(params)
    scenario = params.pop("scenario")
    shards = int(params.pop("shards", 1))
    plan = ShardPlan.named(scenario, params, seed, shards)
    return run_sharded(plan)["outcome"] if shards > 1 else run_oracle(plan)


# ---------------------------------------------------------------------------
# ablation-dutycycle — energy vs delivery across MAC duty cycles


def dutycycle_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    return Campaign(
        name="ablation-dutycycle",
        trial=PLAN_TRIAL,
        grid={"duty_cycle": [1.0, 0.5, 0.2, 0.1]},
        # A 4-hop line pushing one event every 6 s, like the Fig 8 source.
        fixed={
            "scenario": "line", "nodes": 5, "send_start": 5.0,
            "send_interval": 6.0, "duration": 300.0 if quick else 600.0,
        },
        seeds=[5],
        description="duty-cycled MAC energy vs delivery trade-off",
    )


# ---------------------------------------------------------------------------
# ablation-push-pull — one-phase push vs two-phase pull crossover


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
# ablation-latency — what aggregation costs in latency (Section 6.1)

#: the counting filter's hold time, and the events each variant carries.
LATENCY_HOLD = 0.5
LATENCY_EVENTS = 40


def latency_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Y topology, sources 3 and 4 -> relay 2 -> relay 1 -> sink 0, the
    ``filter`` (``none`` / ``suppression`` / ``counting``) on every
    node; the mean generation-to-sink latency of each distinct event."""
    from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
    from repro.filters import CountingAggregationFilter, SuppressionFilter
    from repro.naming import AttributeVector
    from repro.naming.keys import Key
    from repro.sim import Simulator
    from repro.testbed import IdealNetwork

    variant = params["filter"]
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.01)
    config = DiffusionConfig(
        reinforcement_jitter=0.05, exploratory_interval=10.0
    )
    nodes = {
        i: DiffusionNode(sim, i, net.add_node(i), config=config)
        for i in range(5)
    }
    apis = {i: DiffusionRouting(node) for i, node in nodes.items()}
    for a, b in [(0, 1), (1, 2), (2, 3), (2, 4)]:
        net.connect(a, b)
    for node in nodes.values():
        if variant == "suppression":
            SuppressionFilter(node)
        elif variant == "counting":
            CountingAggregationFilter(node, delay=LATENCY_HOLD)
    generated: Dict[int, float] = {}
    latency: Dict[int, float] = {}

    def on_event(attrs, message):
        sequence = attrs.value_of(Key.SEQUENCE)
        if sequence in generated and sequence not in latency:
            latency[sequence] = sim.now - generated[sequence]

    apis[0].subscribe(
        AttributeVector.builder().eq(Key.TYPE, "det").build(), on_event
    )
    pubs = {
        i: apis[i].publish(
            AttributeVector.builder().actual(Key.TYPE, "det").build()
        )
        for i in (3, 4)
    }
    for sequence in range(LATENCY_EVENTS):
        generated[sequence] = when = 2.0 + sequence * 2.0
        for source in (3, 4):
            sim.schedule(
                when, apis[source].send, pubs[source],
                AttributeVector.builder().actual(Key.SEQUENCE, sequence).build(),
            )
    sim.run(until=2.0 + LATENCY_EVENTS * 2.0 + 20.0)
    return {
        "mean_latency": sum(latency.values()) / max(1, len(latency)),
        "delivered": len(latency),
        "generated": LATENCY_EVENTS,
    }


def latency_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    return Campaign(
        name="ablation-latency",
        trial="repro.campaign.builtin:latency_trial",
        grid={"filter": ["none", "suppression", "counting"]},
        seeds=[0],
        description="event latency with no filter, suppression, counting",
    )


# ---------------------------------------------------------------------------
# ablation-gear — geographic interest pruning (paper ref [39])

GEAR_GRID = 6
GEAR_SPACING = 10.0


def gear_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A 6x6 ideal grid; the center queries the bottom-left 2x2 corner,
    with or without a :class:`~repro.filters.GearFilter` on each node."""
    from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
    from repro.core.messages import MessageType
    from repro.filters import GearFilter
    from repro.naming import AttributeVector
    from repro.naming.keys import Key
    from repro.radio import Topology
    from repro.sim import Simulator
    from repro.testbed import IdealNetwork

    topology = Topology.grid(
        columns=GEAR_GRID, rows=GEAR_GRID, spacing=GEAR_SPACING
    )
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.005)
    config = DiffusionConfig(reinforcement_jitter=0.05)
    nodes = {}
    for node_id in topology.node_ids():
        nodes[node_id] = DiffusionNode(
            sim, node_id, net.add_node(node_id), config=config
        )
        if params["gear"]:
            GearFilter(nodes[node_id], topology, slack=2.0)
    for i in topology.node_ids():
        if i % GEAR_GRID < GEAR_GRID - 1:
            net.connect(i, i + 1)
        if i < GEAR_GRID * (GEAR_GRID - 1):
            net.connect(i, i + GEAR_GRID)
    corner = (
        AttributeVector.builder()
        .eq(Key.TYPE, "det")
        .ge(Key.X_COORD, -1.0).le(Key.X_COORD, GEAR_SPACING + 1.0)
        .ge(Key.Y_COORD, -1.0).le(Key.Y_COORD, GEAR_SPACING + 1.0)
        .build()
    )
    center = (GEAR_GRID // 2) * GEAR_GRID + GEAR_GRID // 2
    DiffusionRouting(nodes[center]).subscribe(corner, lambda a, m: None)
    sim.run(until=3.0)
    region = (0, 1, GEAR_GRID, GEAR_GRID + 1)
    return {
        "interest_transmissions": sum(
            node.stats.messages_by_type[MessageType.INTEREST]
            for node in nodes.values()
        ),
        "region_reached": all(len(nodes[i].gradients) == 1 for i in region),
    }


def gear_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    return Campaign(
        name="ablation-gear",
        trial="repro.campaign.builtin:gear_trial",
        grid={"gear": [False, True]},
        seeds=[0],
        description="interest flood cost with and without GEAR pruning",
    )


# ---------------------------------------------------------------------------
# ablation-reinforcement, ablation-multipath — the Figure 8 workload at
# two sources, unsuppressed, on a DiffusionConfig no preset param names


def _surveillance(network, duration: float) -> Dict[str, Any]:
    from repro.apps import SurveillanceExperiment
    from repro.testbed import FIG8_SINK, FIG8_SOURCES

    result = SurveillanceExperiment(
        network, FIG8_SINK, FIG8_SOURCES[:2], suppression=False
    ).run(duration=duration)
    return {
        "delivery_ratio": result.delivery_ratio,
        "bytes_per_event": result.bytes_per_event,
    }


def reinforcement_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Two-phase pull (``reinforcement`` true) or pure flooding."""
    from repro.core import DiffusionConfig
    from repro.testbed import isi_testbed_network

    config = DiffusionConfig(enable_reinforcement=bool(params["reinforcement"]))
    network = isi_testbed_network(seed=seed, config=config)
    return _surveillance(network, float(params["duration"]))


def reinforcement_campaign(quick: bool = False, root_seed: int = 31) -> Campaign:
    return Campaign(
        name="ablation-reinforcement",
        trial="repro.campaign.builtin:reinforcement_trial",
        grid={"reinforcement": [True, False]},
        fixed={"duration": 300.0 if quick else 900.0},
        seeds=[root_seed, root_seed + 1],
        description="two-phase pull vs pure flooding on the testbed",
    )


def multipath_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """``multipath_degree`` reinforced paths under Gilbert-Elliott
    intermittence (Section 6.4's "intermittent connectivity")."""
    from repro.core import DiffusionConfig
    from repro.radio import DistancePropagation, GilbertElliotLink
    from repro.testbed import SensorNetwork
    from repro.testbed.isi import (
        ISI_FULL_RANGE,
        ISI_MAX_RANGE,
        isi_testbed_topology,
    )

    topology = isi_testbed_topology()
    base = DistancePropagation(
        topology, full_range=ISI_FULL_RANGE, max_range=ISI_MAX_RANGE,
        asymmetry=0.10, seed=seed,
    )
    flaky = GilbertElliotLink(
        base, mean_good=60.0, mean_bad=12.0, bad_scale=0.2, seed=seed
    )
    network = SensorNetwork(
        topology,
        config=DiffusionConfig(
            multipath_degree=int(params["multipath_degree"])
        ),
        seed=seed,
        propagation=flaky,
    )
    return _surveillance(network, float(params["duration"]))


def multipath_campaign(quick: bool = False, root_seed: int = 41) -> Campaign:
    return Campaign(
        name="ablation-multipath",
        trial="repro.campaign.builtin:multipath_trial",
        grid={"multipath_degree": [1, 2]},
        fixed={"duration": 300.0 if quick else 900.0},
        seeds=[root_seed + trial for trial in range(2 if quick else 3)],
        description="delivery under intermittent links, 1 vs 2 paths",
    )


# ---------------------------------------------------------------------------
# ablation-ratio — the exploratory:data ratio on the live testbed


def ratio_campaign(quick: bool = False, root_seed: int = 17) -> Campaign:
    return Campaign(
        name="ablation-ratio",
        trial=PLAN_TRIAL,
        # Data every 6 s: exploratory every 30 s is 1:5, every 120 s 1:20.
        grid={"exploratory_interval": [30.0, 120.0]},
        fixed={
            "scenario": "fig8", "sources": 2, "suppression": True,
            "duration": 300.0 if quick else 900.0,
        },
        seeds=[root_seed],
        description="bytes per event vs the exploratory interval",
    )


# ---------------------------------------------------------------------------
# bulk-transfer — Section 3.1's retransmission scheme across the testbed

TRANSFER_SENDER = 25
TRANSFER_RECEIVER = 39
TRANSFER_BYTES = 2048


def transfer_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A 2 KB object from node 25 to node 39 with NACK repair."""
    import hashlib

    from repro.testbed import isi_testbed_network
    from repro.transfer import BlockReceiver, BlockSender, split_object

    network = isi_testbed_network(seed=seed)
    payload = bytes((i * 31 + seed) % 256 for i in range(TRANSFER_BYTES))
    obj = split_object("obj", payload)
    completions: List[Any] = []
    BlockReceiver(
        network.api(TRANSFER_RECEIVER),
        object_id=obj.object_id,
        on_complete=lambda data, stats: completions.append((data, stats)),
        quiet_timeout=6.0,
        max_repair_rounds=30,
    )
    sender = BlockSender(network.api(TRANSFER_SENDER), block_interval=0.8)
    network.sim.schedule(2.0, sender.offer, obj, 0.0)
    network.run(until=float(params["duration"]))
    data, stats = completions[0] if completions else (None, None)
    return {
        "blocks": obj.block_count,
        "intact": data is not None
        and hashlib.sha1(data).hexdigest() == obj.checksum(),
        "completed_at": stats.completed_at if stats else None,
        "repair_rounds": stats.repair_rounds if stats else None,
        "repairs_served": sender.repairs_served,
    }


def transfer_campaign(quick: bool = False, root_seed: int = 13) -> Campaign:
    return Campaign(
        name="bulk-transfer",
        trial="repro.campaign.builtin:transfer_trial",
        fixed={"duration": 900.0},
        seeds=[root_seed, root_seed + 1],
        description="a 2 KB object across the testbed, NACK repair",
    )


# ---------------------------------------------------------------------------
# fig8, fig9 — the paper's two testbed sweeps, seeds pinned ("the mean of
# five 30-minute experiments", "three 20-minute experiments", Section 6)


def fig8_campaign(quick: bool = False, root_seed: int = 100) -> Campaign:
    trials = 2 if quick else 5
    return Campaign(
        name="fig8",
        trial=PLAN_TRIAL,
        grid={"sources": [1, 2, 3, 4], "suppression": [True, False]},
        fixed={"scenario": "fig8", "duration": 600.0 if quick else 1800.0},
        seeds=[root_seed + trial for trial in range(trials)],
        description="Figure 8: bytes per distinct event vs number of sources",
    )


def fig9_campaign(quick: bool = False, root_seed: int = 200) -> Campaign:
    trials = 2 if quick else 3
    return Campaign(
        name="fig9",
        trial=PLAN_TRIAL,
        grid={"num_lights": [1, 2, 3, 4], "nested": [True, False]},
        fixed={"scenario": "fig9", "duration": 600.0 if quick else 1200.0},
        seeds=[root_seed + trial for trial in range(trials)],
        description="Figure 9: % of audio events delivered, nested vs flat",
    )


#: the paper's curve names, in the paper's order.
FIG8_COLUMNS = {True: "with suppression", False: "without suppression"}
FIG9_COLUMNS = {True: "nested", False: "flat"}


def fig8_pivot(outcomes) -> Dict[Any, Dict[Any, Any]]:
    """Figure 8's points: ``{sources: {suppression: bytes/event}}``."""
    return pivot(outcomes, "bytes_per_event", row="sources", col="suppression")


def fig9_pivot(outcomes) -> Dict[Any, Dict[Any, Any]]:
    """Figure 9's points: ``{num_lights: {nested: % delivered}}``."""
    return pivot(outcomes, "delivery_percentage", row="num_lights", col="nested")


# ---------------------------------------------------------------------------
# resilience — fault injection with repair-time verification
# (exploratory-interval sensitivity across the builtin fault plans)


def resilience_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    return Campaign(
        name="resilience",
        trial=PLAN_TRIAL,
        grid={
            "fault": ["crash", "link-flap", "partition"],
            "exploratory_interval": (
                [5.0, 10.0] if quick else [5.0, 10.0, 20.0]
            ),
        },
        fixed={"scenario": "resilience", "duration": 120.0 if quick else 200.0},
        seeds=[root_seed],
        description="repair time and delivery under faults vs exploratory interval",
    )


# ---------------------------------------------------------------------------
# hierarchy — propagation-mode ablation (flat / clustered / rendezvous)

#: announcements at 3x the interest interval (their only steady-state
#: job is liveness), refresh damping past the second sink refresh but
#: safely inside the gradient timeout.
HIERARCHY_TUNING = {
    "announce_interval": 24.0,
    "announce_jitter": 3.0,
    "refresh_damping": 17.0,
}

#: the sweep's own workload, sparser and denser-packed than the
#: ``hierarchy`` preset's (0.5 s sends, 18 m spacing).
HIERARCHY_DEFAULTS = {
    "scenario": "hierarchy", "spacing": 15.0, "region": 8,
    "duration": 90.0, "send_interval": 2.0,
}


def hierarchy_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One propagation mode on the regional workload (one local
    source→sink pair per region block): the :func:`plan_trial` of
    ``params`` over :data:`HIERARCHY_DEFAULTS`, with the one param a
    grid cannot hold because it is derived, and ``offered`` — the data
    all the pairs sent — added to the outcome."""
    from repro.shard import get_scenario
    from repro.shard.scenario import PAIR_LAYOUTS, stream_sends

    params = {**HIERARCHY_DEFAULTS, **params}
    # The rendezvous grid grows with the deployment so region cells
    # keep a roughly constant node count.
    params["hierarchy"] = dict(
        HIERARCHY_TUNING, regions=max(4, int(params["columns"]) * 3 // 16)
    )
    outcome = plan_trial(params, seed)
    p = get_scenario("hierarchy").resolve(params)
    # The regions layout places its pairs by row and column, not by id.
    outcome["offered"] = len(PAIR_LAYOUTS["regions"](p, ())) * stream_sends(p)
    return outcome


def hierarchy_campaign(quick: bool = False, root_seed: int = 3) -> Campaign:
    if quick:
        grid = {"mode": ["flat", "clustered", "rendezvous"]}
        fixed = {"columns": 10, "rows": 10, "region": 5, "duration": 30.0}
    else:
        # 256 to 1024 nodes on one queue: the cross product of the
        # sides, so the 512-node rectangles come along.
        grid = {
            "mode": ["flat", "clustered", "rendezvous"],
            "columns": [16, 32],
            "rows": [16, 32],
        }
        fixed = {"region": 8, "duration": 90.0}
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


def dtn_campaign(quick: bool = False, root_seed: int = 1) -> Campaign:
    grid: Dict[str, List[Any]] = {
        "custody": [False, True],
        "duty": [0.0, 0.6] if quick else [0.0, 0.3, 0.6],
    }
    if not quick:
        grid["mode"] = ["flat", "clustered"]
    return Campaign(
        name="dtn",
        trial=PLAN_TRIAL,
        grid=grid,
        # One horizon for both forms: the custody arm keeps delivering
        # through the final heal window, so a clipped quick horizon
        # under-reports it against a baseline that already stalled.
        fixed={"scenario": "dtn", "duration": 260.0},
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
    "ablation-latency": latency_campaign,
    "ablation-gear": gear_campaign,
    "ablation-reinforcement": reinforcement_campaign,
    "ablation-multipath": multipath_campaign,
    "ablation-ratio": ratio_campaign,
    "bulk-transfer": transfer_campaign,
    "fig8": fig8_campaign,
    "fig9": fig9_campaign,
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


def _never(value: Optional[float]) -> float:
    """-1.0 for "it never happened": aggregation needs numbers."""
    return -1.0 if value is None else value


def report_table(name: str, report: "CampaignReport") -> str:  # noqa: F821
    """The campaign's headline aggregate table (EXPERIMENTS.md shape).
    A plan campaign stores whole outcomes: its getters name the
    outcome path a cell is read off."""
    outcomes = report.outcomes
    if name == "demo":
        rows = aggregate(outcomes, "value", by=("x",))
        return format_table(rows, "value", title="demo: value by x")
    if name == "scale-aggregation":
        rows = aggregate(outcomes, "bytes_per_event", by=("suppression",))
        return format_table(
            rows, "B/event",
            title="49 nodes, 5 sources, 5 sinks, exploratory:data 1:100",
        )
    if name == "ablation-dutycycle":
        from repro.shard.scenario import get_scenario, stream_sends

        energy = aggregate(
            outcomes, lambda r: r["energy"]["total"], by=("duty_cycle",)
        )
        # The send schedule is fixed across the grid.
        sends = stream_sends(
            get_scenario("line").resolve(outcomes[0].spec.params)
        )
        delivery = aggregate(
            outcomes, lambda r: r["app_delivered"] / sends, by=("duty_cycle",)
        )
        lines = [format_table(energy, "total energy", title="duty-cycle sweep")]
        lines.append(format_table(delivery, "delivery"))
        return "\n".join(lines)
    if name == "ablation-push-pull":
        table = pivot(outcomes, "bytes", row="shape", col="push")
        return format_pivot(
            table, "sinks x srcs", title="bytes by shape",
            columns={False: "pull", True: "push"},
        )
    if name == "fig8":
        return format_pivot(
            fig8_pivot(outcomes), "sources", columns=FIG8_COLUMNS,
            title="Figure 8 — bytes sent per distinct event (mean ± 95% CI)",
        )
    if name == "fig9":
        return format_pivot(
            fig9_pivot(outcomes), "sensors", columns=FIG9_COLUMNS,
            title="Figure 9 — % audio events delivered to the user "
            "(mean ± 95% CI)",
        )
    if name == "resilience":
        table = pivot(
            outcomes,
            lambda r: _never(r["report"]["faults"][0]["repair_intervals"]),
            row="fault", col="exploratory_interval",
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
        title = "delivery ratio vs partition duty"
        lines = [
            format_pivot(
                pivot(group, "delivery_ratio", row="duty", col="custody"),
                "duty",
                title=f"{title}, {mode}" if by_mode else title,
                columns={False: "custody off", True: "custody on"},
            )
            for mode, group in sorted(per_mode.items(), key=repr)
        ]
        by = by_mode + ("duty", "custody")
        depth = aggregate(
            outcomes, lambda r: r["custody_stats"]["depth_high_water"], by=by
        )
        completed = aggregate(
            outcomes, lambda r: _never(r["completed_at"]), by=by
        )
        unattributed = sum(o.result["unattributed"] for o in outcomes if o.ok)
        lines += [
            format_table(depth, "custody depth"),
            format_table(
                completed, "completed at", title="seconds (-1 = never)"
            ),
            f"unattributed losses across all trials: {unattributed}",
        ]
        return "\n".join(lines)
    if name == "hierarchy":
        by = _swept(outcomes, ("columns", "rows")) + ("mode",)

        def control(r):
            messages = r["messages_by_class"]
            return messages["interest"] + messages["control"]

        ctrl = aggregate(outcomes, control, by=by)
        delivery = aggregate(
            outcomes,
            lambda r: r["app_delivered"] / r["offered"] if r["offered"] else 0.0,
            by=by,
        )
        lines = [
            format_table(
                ctrl, "control msgs",
                title="interest + cluster-control transmissions by mode",
            ),
            format_table(delivery, "delivery"),
        ]
        return "\n".join(lines)
    return "\n".join(
        [f"({len([o for o in outcomes if o.ok])} successful trials)"]
        + _claim_lines(name, outcomes)
    )


def _claim_lines(name: str, outcomes) -> List[str]:
    """One unjudged line per claims row read off campaign ``name``: the
    row's value beside its band (a value its trials cannot give — a
    partial run — reads as the error that stopped it)."""
    from repro.campaign.claims import CLAIMS, claim_line

    lines = []
    for claim in CLAIMS:
        if claim.source != name:
            continue
        try:
            value = claim.metric(outcomes)
        except (ArithmeticError, LookupError, ValueError) as exc:
            lines.append(f"----  {claim.id:<9} {claim.what}: no value ({exc})")
            continue
        lines.append(claim_line(claim, value, judged=False))
    return lines
