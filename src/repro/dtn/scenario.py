"""Canned disruption-tolerant transfer scenarios.

:func:`dtn_run` is the workhorse behind the ``dtn`` campaign, the
``dtn_grid`` ledger workload, and the scenario tests: the standard 4×3
resilience grid (:mod:`repro.faults.scenarios`) with a corner source
bulk-transferring one object to the opposite-corner sink while a
repeating :class:`~repro.faults.plan.Partition` plan splits
the grid at a configurable disruption duty cycle.  With ``custody=True``
the full DTN stack is armed — custody agents on every node, per-block
sender retransmission, receiver acks and persistent NACK keepalive —
and every block that does not arrive is attributed to a cause (a
``custody.*`` event or an existing per-layer drop reason).  With
``custody=False`` the run is the legacy stack, bit-identical to a build
where :mod:`repro.dtn` was never imported (``install_disabled=True``
constructs the disabled plumbing to prove it).

:func:`mule_run` is the 2-partition data-mule variant: a 3-node line
whose middle node is alternately connected to the source side and the
sink side but never both — delivery is possible *only* by carrying
custody across the gap.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

import repro.core.messages as core_messages
from repro.dtn.agent import CustodyAgent
from repro.dtn.config import DtnConfig
from repro.faults.engine import FaultEngine
from repro.faults.monitors import MonitorSuite
from repro.faults.plan import FaultPlan, Partition
from repro.faults.scenarios import (
    GRID_COLUMNS,
    GRID_ROWS,
    GRID_SPACING,
    SINK,
    SOURCE,
    close_flight_recorder,
    compressed_config,
    grid_halves,
    watch,
)
from repro.naming.keys import Key
from repro.radio import Topology
from repro.sim.rng import make_rng
from repro.testbed import SensorNetwork
from repro.transfer import (
    BlockCacheFilter,
    BlockReceiver,
    BlockSender,
    DataObject,
    RetransmitPolicy,
)

OBJECT_ID = "dtn-object"

#: reasons that describe a *duplicate* copy dying, not the block: they
#: only attribute a loss when nothing more causal was recorded.
_WEAK_REASONS = ("cache-suppression",)


def partition_windows(
    start: float, duration: float, duty: float, period: float,
    heal_tail: float = 30.0,
) -> List[Tuple[float, float]]:
    """Repeating down-windows at the given disruption duty cycle.

    ``duty`` is the fraction of each ``period`` spent partitioned: past
    1 the windows would overlap (the first heal lifting a partition the
    next window claims is active), and a non-positive period never
    advances.
    """
    if not 0.0 <= duty <= 1.0:
        raise ValueError(f"duty must be in [0, 1], got {duty!r}")
    if not period > 0.0:
        raise ValueError(f"period must be positive, got {period!r}")
    if duty == 0.0:
        return []
    windows = []
    down = duty * period
    at = start
    while at + down <= duration - heal_tail:
        windows.append((at, at + down))
        at += period
    return windows


class _TimedReceiver(BlockReceiver):
    """BlockReceiver that timestamps every first-copy block arrival."""

    def __init__(self, *args, **kwargs) -> None:
        self.arrivals: Dict[int, float] = {}
        super().__init__(*args, **kwargs)

    def _on_block(self, attrs, message) -> None:
        before = len(self._blocks)
        super()._on_block(attrs, message)
        if len(self._blocks) > before:
            index = attrs.value_of(Key.SEQUENCE)
            self.arrivals[int(index)] = self.api.node.sim.now


class _AttributionTap:
    """Collects the trace evidence the loss attribution joins over."""

    CATEGORIES = (
        "path.drop",
        "diffusion.tx",
        "custody.accept",
        "custody.reinject",
        "custody.transfer",
        "custody.expire",
        "custody.deliver",
    )

    def __init__(self, trace) -> None:
        self.trace = trace
        self.drops_by_trace: Dict[str, List[str]] = {}
        self.tx_traces: set = set()
        self.block_traces: Dict[Tuple[str, int], set] = {}
        self.expire_reason: Dict[Tuple[str, int], str] = {}
        for category in self.CATEGORIES:
            trace.subscribe(category, self._on_record)

    def _on_record(self, record) -> None:
        data = record.data
        if record.category == "path.drop":
            tid = data.get("trace")
            if tid is not None:
                self.drops_by_trace.setdefault(tid, []).append(
                    data.get("reason", "unknown")
                )
            return
        if record.category == "diffusion.tx":
            tid = data.get("trace")
            if tid is not None:
                self.tx_traces.add(tid)
            return
        # custody.* events all carry (object, index, trace).
        key = (data.get("object"), data.get("index"))
        if key[0] is None or key[1] is None:
            return
        tid = data.get("trace")
        if tid is not None:
            self.block_traces.setdefault(key, set()).add(tid)
        if record.category == "custody.expire":
            self.expire_reason[key] = data.get("reason", "unknown")

    def detach(self) -> None:
        for category in self.CATEGORIES:
            self.trace.unsubscribe(category, self._on_record)

    def attribute(
        self,
        object_id: str,
        block_count: int,
        delivered: set,
        sender_traces: Dict[Tuple[str, int], List[str]],
        held_at_end: set,
    ) -> Dict[int, str]:
        """One cause per undelivered block, never 'unattributed' unless
        the evidence really is empty (the dtn campaign gates on zero)."""
        causes: Dict[int, str] = {}
        for index in range(block_count):
            if index in delivered:
                continue
            key = (object_id, index)
            family = set(sender_traces.get(key, ()))
            family |= self.block_traces.get(key, set())
            if index in held_at_end:
                causes[index] = "custody.held-at-end"
                continue
            if key in self.expire_reason:
                causes[index] = f"custody.expire-{self.expire_reason[key]}"
                continue
            reasons = [
                reason
                for tid in family
                for reason in self.drops_by_trace.get(tid, ())
            ]
            strong = [r for r in reasons if r not in _WEAK_REASONS]
            if strong:
                causes[index] = strong[-1]
            elif reasons:
                causes[index] = reasons[-1]
            elif family & self.tx_traces:
                causes[index] = "in-flight-loss"
            elif family:
                causes[index] = "never-transmitted"
            else:
                causes[index] = "unattributed"
        return causes


def _arm_transfer(
    network: SensorNetwork,
    seed: int,
    custody: bool,
    dtn_config: Optional[DtnConfig],
    block_interval: float,
    payload: bytes,
    offer_at: float,
    source: int,
    sink: int,
    receiver_rounds: int,
    with_caches: bool,
    install_disabled: bool = False,
):
    """Sender at ``source``, receiver at ``sink``, a block cache on
    every relay (``with_caches``), and (optionally) custody agents."""
    obj = DataObject(OBJECT_ID, payload)
    policy = RetransmitPolicy() if custody else None
    sender = BlockSender(
        network.api(source),
        block_interval=block_interval,
        reliability=policy,
        rng=make_rng(seed, "dtn:sender") if custody else None,
    )
    receiver = _TimedReceiver(
        network.api(sink),
        OBJECT_ID,
        on_complete=lambda data, stats: None,
        quiet_timeout=4.0,
        max_repair_rounds=receiver_rounds,
        max_quiet_timeout=20.0,
        reliability=policy,
        rng=make_rng(seed, "dtn:receiver") if custody else None,
        persistent=custody,
    )
    if with_caches:
        for node_id in network.node_ids():
            if node_id not in (source, sink):
                BlockCacheFilter(network.node(node_id), capacity=64)
    agents: Dict[int, CustodyAgent] = {}
    if custody or install_disabled:
        config = dtn_config or DtnConfig()
        if install_disabled:
            config = DtnConfig(enabled=False)
        for node_id in network.node_ids():
            stack = network.stack(node_id)
            ledger = stack.energy
            agents[node_id] = CustodyAgent(
                network.node(node_id),
                rng=make_rng(seed, f"dtn:agent:{node_id}"),
                config=config,
                energy_spent=(
                    lambda ledger=ledger: ledger.energy(
                        elapsed=network.sim.now
                    )
                ),
            )
    network.sim.schedule(offer_at, sender.offer, obj, 0.0)
    return obj, sender, receiver, agents


def _finish_run(
    network: SensorNetwork,
    engine: FaultEngine,
    monitors: MonitorSuite,
    tap: _AttributionTap,
    obj: DataObject,
    sender: BlockSender,
    receiver: "_TimedReceiver",
    agents: Dict[int, CustodyAgent],
    windows: List[Tuple[float, float]],
    extra: Dict[str, Any],
) -> Dict[str, Any]:
    monitors.check()
    monitors.detach()
    tap.detach()
    held_at_end = {
        entry.index
        for agent in agents.values()
        for entry in agent.store.entries()
        if entry.object_id == obj.object_id
    }
    delivered = set(receiver.arrivals)
    causes = tap.attribute(
        obj.object_id, obj.block_count, delivered,
        sender.block_traces, held_at_end,
    )
    attribution: Dict[str, int] = {}
    for cause in causes.values():
        attribution[cause] = attribution.get(cause, 0) + 1

    def in_window(t: float) -> bool:
        return any(at <= t < until for at, until in windows)

    during = sum(1 for t in receiver.arrivals.values() if in_window(t))
    after = len(receiver.arrivals) - during
    custody_stats = {
        "accepted": sum(a.store.accepted for a in agents.values()),
        "transferred": sum(a.store.transferred for a in agents.values()),
        "expired": sum(a.store.expired for a in agents.values()),
        "refused_energy": sum(a.store.refused_energy for a in agents.values()),
        "depth_high_water": max(
            (a.store.depth_high_water for a in agents.values()), default=0
        ),
        "held_at_end": len(held_at_end),
        "reinjections": sum(a.reinjections for a in agents.values()),
        "beacons": sum(a.beacons for a in agents.values()),
        "contacts": sum(a.contacts for a in agents.values()),
        "custody_acks": sum(a.acks_sent for a in agents.values()),
    }
    result = {
        "offered": obj.block_count,
        "delivered": len(delivered),
        "delivery_ratio": round(len(delivered) / obj.block_count, 4),
        "completed": receiver.stats.complete,
        "completed_at": (
            round(receiver.stats.completed_at, 3)
            if receiver.stats.completed_at is not None
            else None
        ),
        "delivery_during_partition": during,
        "delivery_after_partition": after,
        "partition_windows": [
            [round(a, 3), round(b, 3)] for a, b in windows
        ],
        "custody_stats": custody_stats,
        "transfer": {
            "blocks_sent": sender.blocks_sent,
            "retransmits": sender.retransmits,
            "acks_received": sender.acks_received,
            "acks_sent": receiver.acks_sent,
            "repairs_served": sender.repairs_served,
            "repair_rounds": receiver.stats.repair_rounds,
            "duplicate_blocks": receiver.stats.duplicate_blocks,
        },
        "attribution": dict(sorted(attribution.items())),
        "unattributed": attribution.get("unattributed", 0),
        "timeline": engine.timeline,
        "violations": [v.describe() for v in monitors.violations],
        "invariants_ok": monitors.ok,
    }
    result.update(extra)
    return result


def dtn_run(
    seed: int = 1,
    duty: float = 0.6,
    period: float = 50.0,
    duration: float = 260.0,
    custody: bool = True,
    install_disabled: bool = False,
    payload_bytes: int = 2048,
    block_interval: float = 0.5,
    exploratory_interval: float = 8.0,
    mode: str = "flat",
    dtn_config: Optional[DtnConfig] = None,
    flight_recorder: Optional[str] = None,
) -> Dict[str, Any]:
    """One bulk transfer across a grid partitioned at ``duty``.

    ``custody=False`` is the legacy baseline; ``install_disabled=True``
    (with ``custody=False``) additionally constructs every DTN object
    with ``enabled=False`` — the outcome must be bit-identical
    (``tests/test_dtn_scenario.py::TestGrid::
    test_dtn_off_is_bit_identical_to_never_built``).  ``mode`` may be
    ``"clustered"`` to run the same disruption over the hierarchy
    backbone.
    """
    core_messages._msg_counter = itertools.count(1)
    network = SensorNetwork(
        Topology.grid(GRID_COLUMNS, GRID_ROWS, spacing=GRID_SPACING),
        seed=seed,
        config=compressed_config(exploratory_interval),
    )
    hierarchy = None
    if mode != "flat":
        from repro.hierarchy import install_hierarchy

        hierarchy = install_hierarchy(
            network, mode=mode,
            params={"announce_interval": 12.0, "announce_jitter": 1.0},
        )
    windows = partition_windows(30.0, duration, duty, period)
    plan = FaultPlan(
        tuple(
            Partition(groups=grid_halves(), at=at, heal_at=until)
            for at, until in windows
        )
    )
    engine = FaultEngine(network, plan)
    monitors = watch(network, flight_recorder)
    tap = _AttributionTap(network.trace)
    obj, sender, receiver, agents = _arm_transfer(
        network, seed, custody, dtn_config, block_interval,
        payload=bytes(range(256)) * (payload_bytes // 256),
        offer_at=8.0,
        source=SOURCE,
        sink=SINK,
        receiver_rounds=6,
        with_caches=True,
        install_disabled=install_disabled,
    )
    for agent in agents.values():
        monitors.watch_custody(agent)
    network.run(until=duration)
    extra = {
        "scenario": "dtn-grid",
        "seed": seed,
        "duty": duty,
        "period": period,
        "duration": duration,
        "custody": custody,
        "mode": mode,
    }
    result = _finish_run(
        network, engine, monitors, tap, obj, sender, receiver,
        agents, windows, extra,
    )
    if hierarchy is not None:
        result["hierarchy_mode"] = mode
    if flight_recorder is not None:
        result["flight_recorder"] = close_flight_recorder(
            monitors, flight_recorder
        )
    return result


#: mule line: source — mule — sink.
MULE_SOURCE = 0
MULE = 1
MULE_SINK = 2


def mule_run(
    seed: int = 1,
    custody: bool = True,
    duration: float = 140.0,
    payload_bytes: int = 1536,
    dtn_config: Optional[DtnConfig] = None,
) -> Dict[str, Any]:
    """The 2-partition data-mule scenario.

    A 3-node line where the middle node alternates sides — first
    ``{source, mule} | {sink}``, then ``{source} | {mule, sink}`` — so
    the endpoints are *never* simultaneously connected until the final
    heal.  Without custody nothing can cross; with custody the source
    hands blocks to the mule during the first window (one-hop carrier
    beacons + custody acks) and the mule re-injects them when the
    sink's interests reach it in the second."""
    core_messages._msg_counter = itertools.count(1)
    network = SensorNetwork(
        Topology.line(3, spacing=GRID_SPACING),
        seed=seed,
        config=compressed_config(8.0),
    )
    windows = [(10.0, 50.0), (50.0, 90.0)]
    plan = FaultPlan(
        (
            Partition(
                groups=((MULE_SOURCE, MULE), (MULE_SINK,)),
                at=windows[0][0], heal_at=windows[0][1],
            ),
            Partition(
                groups=((MULE_SOURCE,), (MULE, MULE_SINK)),
                at=windows[1][0], heal_at=windows[1][1],
            ),
        )
    )
    engine = FaultEngine(network, plan)
    monitors = MonitorSuite(network)
    tap = _AttributionTap(network.trace)
    obj, sender, receiver, agents = _arm_transfer(
        network, seed, custody, dtn_config, block_interval=0.5,
        payload=bytes(range(256)) * (payload_bytes // 256),
        offer_at=12.0,
        source=MULE_SOURCE,
        sink=MULE_SINK,
        receiver_rounds=5,
        with_caches=False,
    )
    for agent in agents.values():
        monitors.watch_custody(agent)
    network.run(until=duration)
    extra = {
        "scenario": "dtn-mule",
        "seed": seed,
        "custody": custody,
        "duration": duration,
    }
    return _finish_run(
        network, engine, monitors, tap, obj, sender, receiver,
        agents, windows, extra,
    )
