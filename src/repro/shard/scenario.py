"""The scenario registry: every canned run is a recipe named here.

A scenario is a recipe every runner evaluates the same way (the
single-queue :func:`~repro.shard.runner.build_whole`, each shard worker,
the perf ledger): the *same* topology and move schedule everywhere
(geometry is global — a foreign node's movement changes what an owned
node hears), but node stacks, traffic sources, and sinks built only for
the *owned* subset.  Per-node RNG streams are derived by label
(:class:`~repro.sim.rng.SeedSequence`), so a subset build consumes
exactly the streams those nodes would consume in a whole-network build
— which is what makes the single-queue oracle and the sharded runs
comparable event-for-event.

``flood`` and ``mobility`` drive the radio alone.  Every full-stack run
— the paper's two testbed sweeps (``fig8``, ``fig9``) included — is a
**preset** of one template, :class:`StackScenario`, which builds in
one fixed order: the network for the owned nodes → the fault harness
(:class:`~repro.faults.scenarios.FaultHarness`, iff a plan, monitors or
a flight recorder is named) → the workload → the propagation mode (iff
named).  Each optional layer is imported by the build that arms it, so
a run that arms none loads no :mod:`repro.faults`, custody stack or
:mod:`repro.hierarchy`.  Each step schedules kernel events
as it is constructed, and events at equal time and priority run in
scheduling order; fault events carry their own priorities, so a crash
at t=40.0 runs before the resilience stream's send due at the same
instant (5.0 + 35 x 1.0) whatever order the build scheduled them in,
and ``tests/test_pins.py`` holds every preset's outcome equal with the
kernel's ties reversed.  Every option is a param with a
per-preset default, so presets differ only by their defaults and by the
workload they arm, any preset takes any option, and ``outcome()`` is
the workload's dict plus one section per armed option.  A sweep is a grid
of plans over this registry (:func:`repro.campaign.builtin.plan_trial`).

A subset build (a shard) takes no fault harness and no
``duty_cycle`` (a duty-cycled MAC transmits at wake-ups, outside the
attempt events the shards' lookahead is derived from);
:meth:`StackScenario.build` refuses the rest by name.

An ``outcome`` is a plain dict designed to merge across shards
(ints/floats sum, lists concatenate, dicts recurse — see
:func:`repro.shard.runner.merge_outcomes`) and to compare exactly
against the oracle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.apps.fusion import (
    FusionFilter,
    MovingTarget,
    ProximitySensor,
    SAMPLE_INTERVAL,
    TrackingSink,
)
from repro.apps.nestedquery import NestedQueryExperiment
from repro.apps.surveillance import SurveillanceExperiment
from repro.apps.timesync import SyncCoordinator, SyncParticipant, TimeBeacon
from repro.core import DiffusionConfig
from repro.core.node import MESSAGE_CLASS_LABELS
from repro.dtn.scenario import (
    TRANSFER_DEFAULTS,
    arm_grid_transfer,
    arm_mule_transfer,
    duty_cycle_plan,
    mule_plan,
)
from repro.mac import CsmaMac
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio import Channel, DistancePropagation, Modem, Topology
from repro.sim import SeedSequence, Simulator
from repro.sim.rng import make_rng
from repro.testbed import (
    FIG8_SINK,
    FIG8_SOURCES,
    FIG9_AUDIO,
    FIG9_LIGHTS,
    FIG9_USER,
    SensorNetwork,
    isi_propagation,
    isi_testbed_topology,
)

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan

#: (time, node, new_x, new_y) — one topology move.
Move = Tuple[float, int, float, float]


@dataclass
class ShardNet:
    """Everything a runner needs from one built scenario."""

    sim: Simulator
    channel: Channel
    propagation: Any
    topology: Topology
    macs: Dict[int, CsmaMac]
    outcome: Callable[[], Dict[str, Any]]
    #: the full stack (and its trace bus), where the recipe builds one.
    network: Optional[SensorNetwork] = None


class Scenario:
    """One deterministic recipe, buildable whole or per shard."""

    name = "?"
    #: every param the recipe reads, with its default; ``duration`` is
    #: how long ``repro run`` runs it when not told.
    defaults: Dict[str, Any] = {}

    def resolve(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``params`` over the defaults (unknown keys ride along)."""
        return {**self.defaults, **params}

    def topology(self, params: Dict[str, Any]) -> Topology:
        raise NotImplementedError

    def move_schedule(
        self, params: Dict[str, Any], topology: Topology
    ) -> List[Move]:
        """Mobility, identical on every shard; default static."""
        return []

    def build(
        self,
        topology: Topology,
        owned: List[int],
        params: Dict[str, Any],
        seed: int,
    ) -> ShardNet:
        raise NotImplementedError


def _positive(p: Dict[str, Any], key: str, kind=float):
    """``p[key]`` as ``kind``, refused unless it is above zero and
    finite (``-p`` reads JSON, where ``NaN`` and ``Infinity`` parse)."""
    value = _count(p, key) if kind is int else kind(p[key])
    if not value > 0:
        raise ValueError(f"{key} must be positive, got {p[key]!r}")
    return _finite(p, key, value)


def _nonnegative(p: Dict[str, Any], key: str, kind=float):
    """``p[key]`` as ``kind``, refused if it is below zero (a time
    before the run starts, a negative count) or not finite."""
    value = _count(p, key) if kind is int else kind(p[key])
    if value < 0:
        raise ValueError(f"{key} must not be negative, got {p[key]!r}")
    return _finite(p, key, value)


def _finite(p: Dict[str, Any], key: str, value):
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {p[key]!r}")
    return value


def _count(p: Dict[str, Any], key: str) -> int:
    """``p[key]`` as a count: ``10.0`` passes, ``10.5`` is refused
    rather than truncated."""
    value = float(p[key])
    if not value.is_integer():
        raise ValueError(f"{key} must be a whole number, got {p[key]!r}")
    return int(value)


def flag(p: Dict[str, Any], key: str) -> bool:
    """``p[key]``, refused unless it is a real ``bool``: ``-p`` keeps a
    value that is not JSON as text, and ``bool("False")`` is true."""
    value = p[key]
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _grid(p: Dict[str, Any]) -> Topology:
    return Topology.grid(
        _positive(p, "columns", int), _positive(p, "rows", int),
        spacing=_positive(p, "spacing"),
    )


def _channel_outcome(channel: Channel) -> Dict[str, int]:
    return {
        "sent": channel.fragments_sent,
        "delivered": channel.fragments_delivered,
        "collided": channel.fragments_collided,
        "lost": channel.fragments_lost,
    }


class FloodScenario(Scenario):
    """Every node beacons through its CSMA MAC; no upper layers.

    The densest channel workload per simulated second, and the purest
    test of cross-shard physics: almost every fragment near a cut must
    collide, capture, and carrier-block identically on both sides.
    """

    name = "flood"
    defaults = {
        "duration": 20.0,
        "columns": 10,
        "rows": 5,
        "spacing": 26.0,
        "interval": 0.5,
    }

    def topology(self, params: Dict[str, Any]) -> Topology:
        return _grid(self.resolve(params))

    def build(self, topology, owned, params, seed) -> ShardNet:
        interval = _positive(self.resolve(params), "interval")
        sim = Simulator()
        seeds = SeedSequence(seed)
        propagation = DistancePropagation(topology, seed=seed)
        channel = Channel(sim, propagation, seeds=seeds)
        heard = [0]

        def on_receive(payload, src, nbytes, link_dst):
            heard[0] += 1

        macs: Dict[int, CsmaMac] = {}
        for node_id in owned:
            modem = Modem(sim, channel, node_id)
            modem.receive_callback = on_receive
            macs[node_id] = CsmaMac(
                sim, modem, rng=seeds.stream(f"mac:{node_id}")
            )

        def beacon_tick(node_id, rng):
            macs[node_id].enqueue(("beacon", node_id), 27)
            sim.schedule(
                interval * (0.5 + rng.random()), beacon_tick, node_id, rng,
                name="beacon",
            )

        for node_id in owned:
            rng = seeds.stream(f"beacon:{node_id}")
            sim.schedule(
                rng.random() * interval, beacon_tick, node_id, rng,
                name="beacon",
            )

        def outcome() -> Dict[str, Any]:
            result = _channel_outcome(channel)
            result["heard"] = heard[0]
            return result

        return ShardNet(sim, channel, propagation, topology, macs, outcome)


class MobilityFloodScenario(FloodScenario):
    """Flood plus nodes marching across the middle of the deployment.

    The movers cross the natural shard cut mid-run, so boundary sets,
    frontier membership, and audibility all churn — the scenario the
    epoch-invalidation machinery exists for.
    """

    name = "mobility"
    defaults = {
        **FloodScenario.defaults,
        "movers": 2,
        "move_steps": 4,
        "move_start": 5.0,
        "move_interval": 3.0,
    }

    def move_schedule(self, params, topology) -> List[Move]:
        p = self.resolve(params)
        columns, rows = int(p["columns"]), int(p["rows"])
        spacing = _positive(p, "spacing")
        steps = _nonnegative(p, "move_steps", int)
        start = _nonnegative(p, "move_start")
        step_dt = _nonnegative(p, "move_interval")
        moves: List[Move] = []
        # Leftmost-column nodes walk east across the whole deployment,
        # one column per step past the midline.
        ids = topology.node_ids()
        for m in range(min(_nonnegative(p, "movers", int), rows)):
            node = ids[m * columns]  # column 0 of row m
            y = topology.position(node).y
            for s in range(1, steps + 1):
                x = spacing * (columns - 1) * s / steps
                moves.append((start + (s - 1) * step_dt + m * 0.7, node, x, y))
        return moves


# -- the full-stack template --------------------------------------------------

TIMER_KEYS = (
    "interest_interval", "interest_jitter", "exploratory_interval",
    "gradient_timeout", "reinforced_timeout", "reinforcement_jitter",
)


def _timers(config: DiffusionConfig) -> Dict[str, float]:
    return {key: getattr(config, key) for key in TIMER_KEYS}


#: compressed diffusion timers so a short run exercises interest
#: flooding, reinforcement, and steady-state forwarding.
SHORT_TIMERS = DiffusionConfig(
    interest_interval=8.0,
    interest_jitter=0.3,
    exploratory_interval=8.0,
    gradient_timeout=25.0,
    reinforced_timeout=20.0,
)


def compressed_config(exploratory_interval: float) -> DiffusionConfig:
    """Timer set compressed so soft state turns over inside short runs
    (the paper's 60 s/100 s timers scaled down together).

    Interest refresh (10 s) runs on the subscription, *not* on data
    liveness — that decoupling is what lets demand outlive a partition
    longer than any individual gradient entry.
    """
    return DiffusionConfig(
        interest_interval=10.0,
        interest_jitter=0.5,
        gradient_timeout=25.0,
        exploratory_interval=exploratory_interval,
        reinforced_timeout=20.0,
        reinforcement_jitter=0.3,
    )


#: what every preset can be told, and what it gets when it is not.
STACK_DEFAULTS: Dict[str, Any] = {
    "duration": 30.0,
    # "grid" (columns x rows), "line" (nodes) or "isi" (Fig. 7)
    "shape": "grid", "columns": 10, "rows": 5, "nodes": 3, "spacing": 18.0,
    **_timers(SHORT_TIMERS),
    # listen fraction of the MAC's 1 s frame; None: plain CSMA
    "duty_cycle": None,
    # fault harness: a builtin plan's name, or a FaultPlan / its JSON
    "fault": None, "plan": None, "monitors": False,
    "flight_recorder": None, "monitor_max_entries": 32,
    # propagation mode and its HierarchyParams overrides
    "mode": None, "hierarchy": None,
}

SHAPES = {
    "grid": _grid,
    "line": lambda p: Topology.line(
        _positive(p, "nodes", int), spacing=_positive(p, "spacing")
    ),
    "isi": lambda p: isi_testbed_topology(),
}


def _region_pairs(p, ids) -> List[Tuple[int, int, str]]:
    """One local source→sink pair per ``region`` x ``region`` block, so
    traffic is everywhere but mostly local — the deployment shape the
    paper argues sensor networks take (many concurrent local tasks),
    and the one where a spatial cut pays: each shard carries its own
    regions' load and only region-straddling paths cross the cut."""
    columns, rows = int(p["columns"]), int(p["rows"])
    region = _count(p, "region")
    # Below 4 a region's source and sink coincide or cross.
    if not 4 <= region <= min(columns, rows):
        raise ValueError(
            f"region must be within [4, {min(columns, rows)}], "
            f"got {p['region']!r}"
        )
    pairs: List[Tuple[int, int, str]] = []
    for base_row in range(0, rows - region + 1, region):
        for base_col in range(0, columns - region + 1, region):
            # Source near one region corner, sink a few hops away
            # toward the opposite corner.
            src = (base_row + 1) * columns + (base_col + 1)
            dst = (base_row + region - 2) * columns + (base_col + region - 2)
            pairs.append((src, dst, f"region{len(pairs)}"))
    return pairs


#: name -> (params, sorted node ids) -> [(source, sink, tag)].
PAIR_LAYOUTS = {
    # Two far-corner sources to one corner sink: the multihop paths
    # cross every shard cut.
    "corners": lambda p, ids: [
        (ids[-1], ids[0], "diffbench"),
        (ids[int(p["columns"]) - 1], ids[0], "diffbench"),
    ],
    "regions": _region_pairs,
    "ends": lambda p, ids: [(ids[-1], ids[0], "trace-demo")],
}

STREAM_DEFAULTS: Dict[str, Any] = {
    "pairs": "corners", "region": 8,
    "send_start": 2.0, "send_interval": 0.5,
}


def _choice(table: Dict[str, Any], p: Dict[str, Any], key: str):
    try:
        return table[p[key]]
    except KeyError:
        raise ValueError(
            f"unknown {key} {p[key]!r}; have {sorted(table)}"
        ) from None


def stream_sends(p: Dict[str, Any], quiet_tail: float = 0.0) -> int:
    """How many data one stream source sends: one every
    ``send_interval`` from ``send_start`` until ``quiet_tail`` before
    ``duration``."""
    start = _nonnegative(p, "send_start")
    window = float(p["duration"]) - (start + quiet_tail)
    return int(window / _positive(p, "send_interval"))


def _stream(net, delivered, pair, p, quiet_tail=0.0, name="") -> None:
    """Subscribe the pair's sink and have its source publish
    :func:`stream_sends` sequence-numbered data — whichever ends the
    network owns."""
    source, sink, tag = pair
    if sink in net.stacks:
        net.api(sink).subscribe(
            AttributeVector.builder().eq(Key.TYPE, tag).build(),
            lambda attrs, msg: delivered.append(net.sim.now),
        )
    if source in net.stacks:
        start, interval = float(p["send_start"]), float(p["send_interval"])
        api = net.api(source)
        pub = api.publish(
            AttributeVector.builder().actual(Key.TYPE, tag).build()
        )
        for i in range(stream_sends(p, quiet_tail)):
            net.sim.schedule(
                start + i * interval, api.send, pub,
                AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
                name=name,
            )


def arm_streams(net, p, seed, harness) -> Callable[[], Dict[str, Any]]:
    """The ``pairs`` layout's source→sink streams."""
    delivered: List[float] = []
    for pair in _choice(PAIR_LAYOUTS, p, "pairs")(p, net.topology.node_ids()):
        _stream(net, delivered, pair, p)
    return lambda: {
        "channel": _channel_outcome(net.channel),
        "app_delivered": len(delivered),
        "delivery_times": sorted(delivered),
        "diffusion_messages": net.total_diffusion_messages_sent(),
    }


#: the standard resilience grid: 4 columns × 3 rows, 15 m spacing,
#: row-major ids — sink and source at opposite corners, everything else
#: a potential relay.  The builtin fault plans
#: (:mod:`repro.faults.scenarios`) name their nodes on it.
GRID_COLUMNS = 4
GRID_ROWS = 3
GRID_SPACING = 15.0

DATA_TYPE = "fault-demo"


def arm_resilience(net, p, seed, harness) -> Callable[[], Dict[str, Any]]:
    """One probed stream from the last node to the first, silent for
    the final 2 s so the last data can land; reports repair per fault."""
    from repro.faults.metrics import ResilienceProbe

    ids = net.topology.node_ids()
    probe = ResilienceProbe(net, ids[0], sources=[ids[-1]])
    _stream(
        net, [], (ids[-1], ids[0], DATA_TYPE), p,
        quiet_tail=2.0, name="faults.source-send",
    )

    def outcome() -> Dict[str, Any]:
        probe.detach()
        engine = harness.engine if harness is not None else None
        return {
            "fault": p["fault"] if p["plan"] is None else "custom",
            "seed": seed,
            "exploratory_interval": p["exploratory_interval"],
            "duration": p["duration"],
            "report": probe.report(
                engine.timeline if engine else [],
                p["exploratory_interval"], p["duration"],
            ),
            "fragments_corrupted": engine.fragments_corrupted if engine else 0,
        }

    return outcome


def _whole_network(net, application: str) -> None:
    """Refuse a subset build: ``application`` wires roles and filters
    across the whole network."""
    if len(net.stacks) < len(net.topology.node_ids()):
        raise ValueError(f"a subset build cannot arm {application}")


def _role_nodes(net, p: Dict[str, Any], key: str, nodes: Tuple[int, ...]):
    """The first ``p[key]`` of a figure's role ``nodes``; the paper's
    applications wire every role and a filter per node on one network."""
    _whole_network(net, "a testbed application")
    count = _count(p, key)
    if not 1 <= count <= len(nodes):
        raise ValueError(f"{key} must be within [1, {len(nodes)}]")
    return nodes[:count]


def _result_outcome(experiment, p, *derived) -> Callable[[], Dict[str, Any]]:
    """The app's result dataclass as a dict, ``derived`` properties
    included (the figure's y-axis)."""

    def outcome() -> Dict[str, Any]:
        result = experiment.result(float(p["duration"]))
        return {
            **asdict(result), **{key: getattr(result, key) for key in derived}
        }

    return outcome


def arm_surveillance(net, p, seed, harness) -> Callable[[], Dict[str, Any]]:
    """Figure 8: ``sources`` synchronized detection sources report to
    the sink across the testbed, with or without ``suppression``."""
    experiment = SurveillanceExperiment(
        net, sink_id=FIG8_SINK,
        source_ids=_role_nodes(net, p, "sources", FIG8_SOURCES),
        suppression=flag(p, "suppression"),
    )
    return _result_outcome(experiment, p, "bytes_per_event", "delivery_ratio")


def arm_nested_query(net, p, seed, harness) -> Callable[[], Dict[str, Any]]:
    """Figure 9: ``num_lights`` light sensors trigger the audio node,
    asked by the user in one ``nested`` query or in two flat ones."""
    experiment = NestedQueryExperiment(
        net, user_id=FIG9_USER, audio_id=FIG9_AUDIO,
        light_ids=_role_nodes(net, p, "num_lights", FIG9_LIGHTS),
        nested=flag(p, "nested"),
    )
    return _result_outcome(experiment, p, "delivery_percentage")


#: the tracking field's user, and the two central relays that fuse.
TRACKING_SINK = 7
TRACKING_FUSERS = (5, 6)


def arm_tracking(net, p, seed, harness) -> Callable[[], Dict[str, Any]]:
    """Section 5.3's future work, sensor fusion as a filter: a target
    crosses the grid, every other node reports when it senses it, and
    :class:`FusionFilter` at two central relays merges each epoch's
    reports into one estimate on the way to the sink's track."""
    _whole_network(net, "the tracking application")
    # Enters from the left and leaves past sensing range on the right.
    target = MovingTarget(start=(-20.0, 22.0), end=(90.0, 22.0), speed=1.5,
                          depart_at=5.0)
    fusers = [FusionFilter(net.node(n), delay=0.8) for n in TRACKING_FUSERS]
    # Single-sensor guesses at the field's edge stay out of the track.
    sink = TrackingSink(net.api(TRACKING_SINK), target, min_confidence=0.3)
    sensors = [
        ProximitySensor(net.api(n), target, net.topology, sense_range=25.0)
        for n in net.node_ids() if n != TRACKING_SINK
    ]

    def outcome() -> Dict[str, Any]:
        track = []
        for point in sink.track:
            # Ground truth at the middle of the observation epoch.
            middle = (point.epoch + 0.5) * SAMPLE_INTERVAL
            track.append({**asdict(point),
                          "truth": list(target.position_at(middle))})
        return {
            "track": track,
            "mean_error": sink.mean_error(),
            "raw_reports": sum(s.detections for s in sensors),
            "reports_fused": sum(f.reports_fused for f in fusers),
            "fused_estimates": sum(f.fusions for f in fusers),
            "diffusion_bytes_sent": net.total_diffusion_bytes_sent(),
        }

    return outcome


#: the timesync square: the RBS beacon, the coordinator (also the
#: reference participant), and the clock the fault steps.
TIMESYNC_BEACON = 0
TIMESYNC_COORDINATOR = 1
TIMESYNC_PARTICIPANTS = (1, 2, 3)
TIMESYNC_SKEWED = 3
#: the step: ``SKEW`` seconds at ``SKEW_AT``, measured against the
#: reference clock every ``SYNC_INTERVAL``; repaired once the error is
#: back within ``SYNC_THRESHOLD``.
SKEW = 2.0
SKEW_AT = 40.0
SYNC_INTERVAL = 8.0
SYNC_THRESHOLD = 0.25


def clock_skew_plan(p: Dict[str, Any]) -> FaultPlan:
    """The timesync disruption: one participant's clock steps mid-run."""
    from repro.faults.plan import ClockSkew, FaultPlan

    return FaultPlan((ClockSkew(node=TIMESYNC_SKEWED, at=SKEW_AT, offset=SKEW),))


def arm_time_sync(network, p, seed, harness) -> Callable[[], Dict[str, Any]]:
    """RBS under a clock-skew fault: periodic sync rounds must re-pull
    the stepped clock within the threshold; repair is measured in sync
    rounds.  The preset's 2x2 grid at 12 m is single-hop, so every node
    hears every beacon directly and observation differences are pure
    clock offset (no path-delay bias), which is RBS's operating
    assumption."""
    engine = harness.engine
    # Start the participant clocks deterministically off-true, so the
    # first sync rounds do real work before the fault ever lands.
    init = make_rng(seed, "faults:clock-init")
    for node in TIMESYNC_PARTICIPANTS:
        clock = engine.clock(node)
        clock.offset = init.uniform(-0.5, 0.5)
        SyncParticipant(network.api(node), clock)
    beacon = TimeBeacon(network.api(TIMESYNC_BEACON), interval=2.0)
    coordinator = SyncCoordinator(network.api(TIMESYNC_COORDINATOR))

    errors: List[List[float]] = []

    def sync_round() -> None:
        now = network.sim.now
        coordinator.apply_corrections(
            {n: engine.clock(n) for n in TIMESYNC_PARTICIPANTS},
            reference=TIMESYNC_COORDINATOR,
        )
        # Slide the estimation window: stale observations straddle any
        # step (correction or fault) and would bias the next estimate.
        coordinator.reset_window()
        errors.append([
            now,
            engine.clock(TIMESYNC_SKEWED).error_vs(
                engine.clock(TIMESYNC_COORDINATOR), now
            ),
        ])
        network.sim.schedule(SYNC_INTERVAL, sync_round, name="rbs.sync-round")

    network.sim.schedule(SYNC_INTERVAL, sync_round, name="rbs.sync-round")

    def outcome() -> Dict[str, Any]:
        beacon.stop()
        repaired_at: Optional[float] = None
        for t, error in errors:
            if t <= SKEW_AT:
                continue
            if error <= SYNC_THRESHOLD:
                repaired_at = t
                break
        return {
            "seed": seed,
            "skew": SKEW,
            "skew_at": SKEW_AT,
            "sync_interval": SYNC_INTERVAL,
            "threshold": SYNC_THRESHOLD,
            "errors": errors,
            "repaired_at": repaired_at,
            "repair_rounds": (
                (repaired_at - SKEW_AT) / SYNC_INTERVAL
                if repaired_at is not None
                else None
            ),
        }

    return outcome


def _traffic_by_class(net: SensorNetwork) -> Dict[str, Dict[str, int]]:
    """Per-message-class traffic, merge-friendly (ints sum)."""
    messages: Dict[str, int] = dict.fromkeys(MESSAGE_CLASS_LABELS.values(), 0)
    nbytes = dict(messages)
    for nid in net.node_ids():
        stats = net.node(nid).stats
        for msg_type, label in MESSAGE_CLASS_LABELS.items():
            messages[label] += stats.messages_by_type[msg_type]
            nbytes[label] += stats.bytes_by_type[msg_type]
    return {"messages_by_class": messages, "bytes_by_class": nbytes}


class StackScenario(Scenario):
    """A full-stack preset: the one template, a workload, and defaults.

    ``arm(net, p, seed, harness)`` wires the workload onto the built
    network and returns its ``outcome()``; ``disruption(p)`` is the
    fault plan the workload brings when neither ``plan`` nor ``fault``
    names one (the transfers' partitions).  The module docstring has
    the build order and why it is fixed.
    """

    def __init__(self, name, doc, arm, defaults, disruption=None) -> None:
        self.name = name
        self.__doc__ = doc
        self.arm = arm
        self.defaults = {**STACK_DEFAULTS, **defaults}
        self.disruption = disruption

    def topology(self, params: Dict[str, Any]) -> Topology:
        p = self.resolve(params)
        return _choice(SHAPES, p, "shape")(p)

    def _fault_plan(self, p: Dict[str, Any]) -> Optional[FaultPlan]:
        plan = p["plan"]
        if plan is None:
            if p["fault"] is not None:
                from repro.faults.scenarios import builtin_plan

                return builtin_plan(str(p["fault"]))
            return self.disruption(p) if self.disruption else None
        from repro.faults.plan import FaultPlan

        if isinstance(plan, FaultPlan):
            return plan
        return FaultPlan.from_json(plan)

    def build(self, topology, owned, params, seed) -> ShardNet:
        p = self.resolve(params)
        plan = self._fault_plan(p)
        duty_cycle = p["duty_cycle"]
        monitors, recorder = flag(p, "monitors"), p["flight_recorder"]
        faulted = plan is not None or monitors or recorder is not None
        if len(owned) < len(topology.node_ids()):
            # A plan validates against, and with the monitors acts on,
            # the whole network.
            if faulted:
                raise ValueError(
                    f"{self.name}: a subset build cannot arm a fault harness"
                )
            # Wake-up transmissions start outside the csma.attempt /
            # csma.backoff events the shards' lookahead is derived from.
            if duty_cycle is not None:
                raise ValueError(
                    f"{self.name}: a subset build cannot run a "
                    "duty_cycle MAC"
                )
        isi = p["shape"] == "isi"
        net = SensorNetwork(
            topology,
            config=DiffusionConfig(**{k: float(p[k]) for k in TIMER_KEYS}),
            seed=seed,
            propagation=isi_propagation(topology, seed) if isi else None,
            nodes=owned,
        )
        if duty_cycle is not None:
            for stack in net.stacks.values():
                stack.mac.set_duty_cycle(float(duty_cycle))
        harness = None
        if faulted:
            from repro.faults.scenarios import FaultHarness

            harness = FaultHarness(
                net, plan, monitors, recorder,
                _nonnegative(p, "monitor_max_entries", int),
            )
        workload = self.arm(net, p, seed, harness)
        mode = None
        if p["mode"] is not None:
            # Imported here so only mode-armed builds pay for it.
            from repro.hierarchy import install_hierarchy

            mode = install_hierarchy(net, p["mode"], p["hierarchy"])

        def outcome() -> Dict[str, Any]:
            result = workload()
            if harness is not None:
                result.update(harness.finish())
            if mode is not None:
                result.update(_traffic_by_class(net), hierarchy=mode.counters())
            if duty_cycle is not None:
                spent = net.radio_energy(net.sim.now)
                result["energy"] = {**asdict(spent), "total": spent.total}
            return result

        return ShardNet(
            net.sim, net.channel, net.propagation, topology,
            {nid: net.stack(nid).mac for nid in owned}, outcome, network=net,
        )


_REGIONAL = {**STREAM_DEFAULTS, "columns": 32, "rows": 32, "pairs": "regions"}
#: the paper's timers, as the testbed ran them.
_PAPER = _timers(DiffusionConfig())
#: the standard resilience grid, monitored.
_FAULTED = {
    "columns": GRID_COLUMNS, "rows": GRID_ROWS, "spacing": GRID_SPACING,
    **_timers(compressed_config(8.0)), "monitors": True,
}
_TRANSFER = {**_FAULTED, **TRANSFER_DEFAULTS}

SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        FloodScenario(),
        MobilityFloodScenario(),
        StackScenario(
            "diffusion", "Corner sources stream to a corner sink.",
            arm_streams, STREAM_DEFAULTS,
        ),
        StackScenario(
            "regional", "Scattered local source→sink pairs, at scale.",
            arm_streams, _REGIONAL,
        ),
        StackScenario(
            "hierarchy", "The regional workload, propagation mode reported.",
            arm_streams, {**_REGIONAL, "mode": "flat"},
        ),
        StackScenario(
            "line", "A chain at the paper's timers, far end to node 0.",
            arm_streams,
            {**STREAM_DEFAULTS, **_PAPER, "shape": "line", "pairs": "ends",
             "spacing": 15.0, "send_start": 3.0, "send_interval": 5.0,
             "duration": 60.0},
        ),
        StackScenario(
            "fig8", "Figure 8 on the ISI testbed: bytes per distinct event.",
            arm_surveillance,
            {**_PAPER, "shape": "isi", "sources": 4, "suppression": True,
             "duration": 1800.0},
        ),
        StackScenario(
            "fig9", "Figure 9 on the ISI testbed: % of audio events delivered.",
            arm_nested_query,
            {**_PAPER, "shape": "isi", "num_lights": 4, "nested": True,
             "duration": 1200.0},
        ),
        StackScenario(
            "tracking", "A target crosses a 4x4 field; two relays fuse "
            "the detections into the sink's track.",
            arm_tracking,
            {**_PAPER, "columns": 4, "rows": 4, "spacing": 15.0,
             "duration": 90.0},
        ),
        StackScenario(
            "resilience", "One fault on the 4x3 grid, repair measured.",
            arm_resilience,
            {**_FAULTED, "fault": "crash", "send_start": 5.0,
             "send_interval": 1.0, "duration": 160.0},
        ),
        StackScenario(
            "dtn", "Bulk transfer across the 4x3 grid partitioned at `duty`.",
            arm_grid_transfer,
            {**_TRANSFER, "duty": 0.6, "period": 50.0, "duration": 260.0,
             "hierarchy": {"announce_interval": 12.0, "announce_jitter": 1.0}},
            disruption=duty_cycle_plan,
        ),
        StackScenario(
            "mule", "Bulk transfer over a 3-node line whose middle node "
            "carries custody between two never-joined partitions.",
            arm_mule_transfer,
            {**_TRANSFER, "shape": "line", "payload_bytes": 1536,
             "send_start": 12.0, "receiver_rounds": 5, "caches": False,
             "duration": 140.0},
            disruption=mule_plan,
        ),
        StackScenario(
            "timesync", "RBS on a single-hop 2x2 square; one clock steps "
            "mid-run and the sync rounds must pull it back.",
            arm_time_sync,
            {"columns": 2, "rows": 2, "spacing": 12.0,
             **_timers(compressed_config(10.0)), "monitors": True,
             "duration": 120.0},
            disruption=clock_skew_plan,
        ),
    )
}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; have {scenario_names()}"
        ) from None
