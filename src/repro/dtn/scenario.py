"""The disruption-tolerant transfer workload and its two presets' doors.

The ``dtn`` and ``mule`` presets of :mod:`repro.shard.scenario` arm the
workload defined here: a corner source bulk-transferring one object to
the opposite-corner sink while :class:`~repro.faults.plan.Partition`
windows split the network.  With ``custody=True`` the full DTN stack is
armed — custody agents on every node, per-block sender retransmission,
receiver acks and persistent NACK keepalive — and every block that does
not arrive is attributed to a cause (a ``custody.*`` event or an
existing per-layer drop reason).  With ``custody=False`` no agent is
attached and the run is the legacy stack.

:func:`dtn_run` (the ``dtn_grid`` ledger workload) is the front door of
``dtn``: the standard 4×3 resilience grid (:mod:`repro.faults.scenarios`)
split down the middle at a configurable disruption duty cycle.
``mule`` is the 2-partition data-mule variant (:func:`mule_plan`): a
3-node line whose middle node is alternately connected to the source
side and the sink side but never both — delivery is possible *only* by
carrying custody across the gap.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.core.config import config_from_object
from repro.dtn.agent import CustodyAgent
from repro.dtn.config import DtnConfig
from repro.faults.plan import FaultPlan, Partition
from repro.faults.scenarios import grid_halves
from repro.naming.keys import Key
from repro.sim.rng import make_rng
from repro.transfer import (
    BlockCacheFilter,
    BlockReceiver,
    BlockSender,
    DataObject,
)

OBJECT_ID = "dtn-object"

#: reasons that describe a *duplicate* copy dying, not the block: they
#: only attribute a loss when nothing more causal was recorded.
_WEAK_REASONS = ("cache-suppression",)


#: every partition window heals at least this many seconds before the
#: run ends.
HEAL_TAIL = 30.0


def partition_windows(
    start: float, duration: float, duty: float, period: float
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
    while at + down <= duration - HEAL_TAIL:
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
        #: per trace id, its latest strong and its latest weak drop as
        #: (record order, reason): record order is simulation order, so
        #: "the drop that happened last" needs no more than these.
        self.drops_seen = 0
        self.last_strong: Dict[str, Tuple[int, str]] = {}
        self.last_weak: Dict[str, Tuple[int, str]] = {}
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
                self.drops_seen += 1
                reason = data.get("reason", "unknown")
                latest = (
                    self.last_weak if reason in _WEAK_REASONS
                    else self.last_strong
                )
                latest[tid] = (self.drops_seen, reason)
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
        """One cause per undelivered block — the last strong drop of
        any copy, else the last weak one — never 'unattributed' unless
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
            drops = [
                self.last_strong[tid] for tid in family
                if tid in self.last_strong
            ] or [
                self.last_weak[tid] for tid in family if tid in self.last_weak
            ]
            if drops:
                causes[index] = max(drops)[1]
            elif family & self.tx_traces:
                causes[index] = "in-flight-loss"
            elif family:
                causes[index] = "never-transmitted"
            else:
                causes[index] = "unattributed"
        return causes


#: what a transfer preset can be told beyond the stack's own params
#: (``dtn_config``: a JSON object of :class:`DtnConfig` overrides).
TRANSFER_DEFAULTS: Dict[str, Any] = {
    "custody": True,
    "dtn_config": None,
    "payload_bytes": 2048,
    "block_interval": 0.5,
    "send_start": 8.0,
    "receiver_rounds": 6,
    "caches": True,
}


def duty_cycle_plan(p: Dict[str, Any]) -> FaultPlan:
    """The grid split down the middle for ``duty`` of every ``period``."""
    halves = grid_halves(int(p["columns"]), int(p["rows"]))
    return FaultPlan(
        tuple(
            Partition(groups=halves, at=at, heal_at=until)
            for at, until in partition_windows(
                30.0, float(p["duration"]), float(p["duty"]),
                float(p["period"]),
            )
        )
    )


def mule_plan(p: Dict[str, Any]) -> FaultPlan:
    """The middle node alternates sides — first ``{source, mule} |
    {sink}``, then ``{source} | {mule, sink}`` — so the endpoints are
    *never* simultaneously connected until the final heal."""
    return FaultPlan(
        (
            Partition(
                groups=((MULE_SOURCE, MULE), (MULE_SINK,)),
                at=10.0, heal_at=50.0,
            ),
            Partition(
                groups=((MULE_SOURCE,), (MULE, MULE_SINK)),
                at=50.0, heal_at=90.0,
            ),
        )
    )


def _arm_transfer(
    network, p, seed, harness, source: int, sink: int, header: Dict[str, Any]
) -> Callable[[], Dict[str, Any]]:
    """Sender at ``source``, receiver at ``sink``, a block cache on
    every relay (``caches``) and, with ``custody``, an agent on every
    node; returns the transfer section of the outcome, ``header``
    first.  The harness's :class:`Partition` windows split deliveries
    into during / after."""
    from repro.shard.scenario import _nonnegative, _positive, flag

    custody = flag(p, "custody")
    config = config_from_object(DtnConfig, p["dtn_config"], "dtn_config")
    payload_bytes = int(p["payload_bytes"])
    if payload_bytes < 256 or payload_bytes % 256:
        raise ValueError(
            f"payload_bytes must be a positive multiple of 256, "
            f"got {p['payload_bytes']!r}"
        )
    send_start = _nonnegative(p, "send_start")
    tap = _AttributionTap(network.trace)
    obj = DataObject(OBJECT_ID, bytes(range(256)) * (payload_bytes // 256))
    sender = BlockSender(
        network.api(source),
        block_interval=_positive(p, "block_interval"),
        reliable=custody,
        rng=make_rng(seed, "dtn:sender") if custody else None,
    )
    receiver = _TimedReceiver(
        network.api(sink),
        OBJECT_ID,
        on_complete=lambda data, stats: None,
        quiet_timeout=4.0,
        max_repair_rounds=int(p["receiver_rounds"]),
        max_quiet_timeout=20.0,
        reliable=custody,
        rng=make_rng(seed, "dtn:receiver") if custody else None,
    )
    if flag(p, "caches"):
        for node_id in network.node_ids():
            if node_id not in (source, sink):
                BlockCacheFilter(network.node(node_id), capacity=64)
    agents: Dict[int, CustodyAgent] = {}
    if custody:
        for node_id in network.node_ids():
            ledger = network.stack(node_id).energy
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
    network.sim.schedule(send_start, sender.offer, obj, 0.0)
    if harness.monitors is not None:
        for agent in agents.values():
            harness.monitors.watch_custody(agent)
    windows = [
        (action.at, action.heal_at)
        for action in harness.engine.plan.actions
        if isinstance(action, Partition)
    ]

    def outcome() -> Dict[str, Any]:
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
        during = sum(
            1
            for t in receiver.arrivals.values()
            if any(at <= t < until for at, until in windows)
        )
        stores = [agent.store for agent in agents.values()]
        return {
            **header,
            "seed": seed,
            "custody": custody,
            "duration": p["duration"],
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
            "delivery_after_partition": len(receiver.arrivals) - during,
            "partition_windows": [
                [round(a, 3), round(b, 3)] for a, b in windows
            ],
            "custody_stats": {
                "accepted": sum(s.accepted for s in stores),
                "transferred": sum(s.transferred for s in stores),
                "expired": sum(s.expired for s in stores),
                "refused_energy": sum(s.refused_energy for s in stores),
                "depth_high_water": max(
                    (s.depth_high_water for s in stores), default=0
                ),
                "held_at_end": len(held_at_end),
                "reinjections": sum(a.reinjections for a in agents.values()),
                "beacons": sum(a.beacons for a in agents.values()),
                "contacts": sum(a.contacts for a in agents.values()),
                "custody_acks": sum(a.acks_sent for a in agents.values()),
            },
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
        }

    return outcome


def arm_grid_transfer(network, p, seed, harness):
    """Last node to first, reported with the grid's duty cycle."""
    ids = network.topology.node_ids()
    return _arm_transfer(
        network, p, seed, harness, source=ids[-1], sink=ids[0],
        header={
            "scenario": "dtn-grid",
            "duty": p["duty"],
            "period": p["period"],
            # No mode named is the flat stack.
            "mode": p["mode"] or "flat",
        },
    )


#: mule line: source — mule — sink.
MULE_SOURCE = 0
MULE = 1
MULE_SINK = 2


def arm_mule_transfer(network, p, seed, harness):
    return _arm_transfer(
        network, p, seed, harness, source=MULE_SOURCE, sink=MULE_SINK,
        header={"scenario": "dtn-mule"},
    )


def dtn_run(
    seed: int = 1,
    duty: float = 0.6,
    duration: float = 260.0,
    custody: bool = True,
) -> Dict[str, Any]:
    """One bulk transfer across a grid partitioned at ``duty``.

    The front door of the ``dtn`` preset: it is
    ``run_oracle(ShardPlan("dtn", params, seed, duration, 1))`` with
    ``params`` naming ``duty`` and ``custody``; every other param is the
    preset's default.  ``custody=False`` is the legacy baseline.
    """
    from repro.shard import ShardPlan, run_oracle

    params = {"duty": duty, "custody": custody}
    return run_oracle(ShardPlan("dtn", params, seed, duration, 1))
