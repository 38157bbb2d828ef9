"""Bounded, energy-aware per-node custody store.

A custody entry is one transfer block this node has promised to carry
until somebody downstream takes responsibility for it (a custody ack),
it reaches a sink, or it is *explicitly* expired.  Nothing ever leaves
the store silently: every removal emits a ``custody.*`` trace event,
and terminal losses additionally emit a ``path.drop`` record with
``layer="custody"`` so the per-layer loss attribution (PR 2) covers
disrupted delivery too.  The ``custody-conservation`` monitor in
:mod:`repro.faults.monitors` cross-checks the event stream against the
store contents.

Graceful degradation is watermark-driven: depth beyond
:data:`CAPACITY` evicts oldest-first, age beyond :data:`MAX_AGE`
expires on the next sweep, and a node past its energy budget refuses
*new* custody (it keeps what it already promised to carry).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.sim.metrics import current_registry
from repro.dtn.config import DtnConfig

BlockKey = Tuple[str, int]  # (object id, block index)

#: custody depth watermark — oldest-first eviction beyond this.
CAPACITY = 64
#: custody age watermark (seconds) — older entries expire (never
#: silently: every eviction emits ``custody.expire`` + a ``path.drop``
#: with a ``custody.*`` reason).
MAX_AGE = 120.0


@dataclass
class CustodyEntry:
    """One block in custody."""

    object_id: str
    index: int
    total: int
    payload: bytes
    accepted_at: float
    #: trace id of the message custody was taken of — re-injections
    #: carry it as their parent, so the causal chain survives custody.
    trace: str
    #: re-injection transmissions so far.
    attempts: int = 0
    #: the carrier the block was accepted from (None = taken at this
    #: node's own dark gradient).
    carrier: Optional[int] = field(default=None)

    @property
    def key(self) -> BlockKey:
        return (self.object_id, self.index)


class CustodyStore:
    """Custody bookkeeping for one node.

    The store owns acceptance policy (duplicates, energy budget) and
    eviction (depth + age watermarks); the
    :class:`~repro.dtn.agent.CustodyAgent` owns the retry schedule and
    the wire protocol.  All events go through the node's trace bus.
    """

    def __init__(
        self,
        node_id: int,
        trace,
        config: Optional[DtnConfig] = None,
        energy_spent: Optional[Callable[[], float]] = None,
    ) -> None:
        self.node_id = node_id
        self.trace = trace
        self.config = config or DtnConfig()
        #: joules consumed so far (from the node's EnergyLedger);
        #: compared against ``config.energy_budget``.
        self.energy_spent = energy_spent
        self._entries: "OrderedDict[BlockKey, CustodyEntry]" = OrderedDict()
        self.accepted = 0
        self.transferred = 0
        self.expired = 0
        self.refused_energy = 0
        self.depth_high_water = 0
        registry = current_registry()
        registry.counter("dtn.custody.accepted", lambda: self.accepted)
        registry.counter("dtn.custody.transferred", lambda: self.transferred)
        registry.counter("dtn.custody.expired", lambda: self.expired)
        self._m_depth = registry.gauge("dtn.custody.depth")

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def holds(self, key: BlockKey) -> bool:
        return key in self._entries

    def get(self, key: BlockKey) -> Optional[CustodyEntry]:
        return self._entries.get(key)

    def entries(self) -> List[CustodyEntry]:
        return list(self._entries.values())

    # -- acceptance ------------------------------------------------------

    def accept(
        self,
        object_id: str,
        index: int,
        total: int,
        payload: bytes,
        now: float,
        trace: str,
        carrier: Optional[int] = None,
    ) -> Optional[CustodyEntry]:
        """Take custody of one block; None when policy refuses.

        Acceptance never fails on capacity — the depth watermark evicts
        the *oldest* promise instead (emitting its expiry), because a
        fresh block from a live contact is worth more than the block
        nobody has wanted for longest.
        """
        key = (object_id, index)
        if key in self._entries:
            return None
        if (
            self.config.energy_budget is not None
            and self.energy_spent is not None
            and self.energy_spent() >= self.config.energy_budget
        ):
            self.refused_energy += 1
            self.trace.emit(
                now, "custody.refuse", node=self.node_id,
                object=object_id, index=index, reason="energy",
            )
            return None
        entry = CustodyEntry(
            object_id=object_id, index=index, total=total,
            payload=payload, accepted_at=now, trace=trace, carrier=carrier,
        )
        self._entries[key] = entry
        self.accepted += 1
        self.depth_high_water = max(self.depth_high_water, len(self._entries))
        self._m_depth.set(len(self._entries))
        self.trace.emit(
            now, "custody.accept", node=self.node_id,
            object=object_id, index=index, trace=trace, carrier=carrier,
        )
        while len(self._entries) > CAPACITY:
            oldest = next(iter(self._entries))
            self._expire(oldest, now, "capacity")
        return self._entries.get(key)

    # -- release ---------------------------------------------------------

    def release(
        self,
        key: BlockKey,
        now: float,
        to: Optional[int] = None,
        delivered: bool = False,
    ) -> Optional[CustodyEntry]:
        """Custody moved on: a downstream node acked (re-custody or
        final delivery).  Emits ``custody.transfer``."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self.transferred += 1
        self._m_depth.set(len(self._entries))
        self.trace.emit(
            now, "custody.transfer", node=self.node_id,
            object=entry.object_id, index=entry.index, trace=entry.trace,
            to=to, delivered=delivered,
        )
        return entry

    def expire_retries(self, key: BlockKey, now: float) -> Optional[CustodyEntry]:
        """The retry bound ran out; an explicit terminal loss."""
        return self._expire(key, now, "retries")

    def sweep(self, now: float) -> List[BlockKey]:
        """Expire every entry past the age watermark; returns their keys."""
        stale = [
            key
            for key, entry in self._entries.items()
            if now - entry.accepted_at >= MAX_AGE
        ]
        for key in stale:
            self._expire(key, now, "age")
        return stale

    def _expire(self, key: BlockKey, now: float, why: str) -> Optional[CustodyEntry]:
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self.expired += 1
        self._m_depth.set(len(self._entries))
        self.trace.emit(
            now, "custody.expire", node=self.node_id,
            object=entry.object_id, index=entry.index, trace=entry.trace,
            reason=why, age=round(now - entry.accepted_at, 3),
            attempts=entry.attempts,
        )
        # Terminal loss joins the per-layer drop attribution.
        self.trace.emit(
            now, "path.drop", node=self.node_id, trace=entry.trace,
            msg_type="DATA", reason=f"custody.expire-{why}", layer="custody",
        )
        return entry
