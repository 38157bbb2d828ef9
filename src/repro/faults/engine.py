"""FaultEngine: executes a FaultPlan against a SensorNetwork.

The engine translates each plan action into simulator events at
construction time, so a seeded run replays bit-identically: the same
plan and seed produce the same fault timeline, the same protocol
behaviour, and the same repair metrics.  Every injection and heal is

* appended to :attr:`FaultEngine.timeline` (JSON-safe dicts, in event
  order — the replay-equality witness),
* emitted on the network's trace bus as ``fault.inject`` /
  ``fault.heal`` records (so trace tooling can correlate protocol
  events with the faults that caused them), and
* counted on the ``faults.injected`` / ``faults.healed`` metrics.

Injection points per action kind:

==================== =====================================================
NodeCrash            ``SensorNetwork.fail_node`` /
                     ``SensorNetwork.resurrect_node(clear_state=...)``
LinkFlap, Partition  :class:`~repro.faults.overlay.FaultOverlayPropagation`
                     spliced under the channel (epoch-bumping, so the
                     neighborhood index invalidates correctly)
ClockSkew            the engine's per-node :class:`NodeClock` registry
FragmentCorruption   the fragmentation layer's ``inbound_filter`` hook
EnergyBrownout       ``CsmaMac.set_duty_cycle``: the node's MAC runs at
                     the least of its own duty cycle and every active
                     brownout's, and its sleep schedule parks the radio
==================== =====================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.faults.overlay import FaultOverlayPropagation
from repro.faults.plan import (
    ClockSkew,
    EnergyBrownout,
    FaultPlan,
    FragmentCorruption,
    LinkFlap,
    NodeCrash,
    Partition,
)
from repro.sim.clock import NodeClock
from repro.sim.metrics import current_registry
from repro.sim.rng import derive_seed, make_rng
from repro.sim.trace import trace_id_of

#: Same-instant order of fault events (the kernel runs the lower
#: priority first; protocol work is at 0): a heal, link-up or reboot
#: lifts its fault before any injection due at that instant lands, and
#: both come before the protocol's own events, so no outcome depends
#: on the order the plan and the protocol scheduled them in.
HEAL_PRIORITY = -4
FAULT_PRIORITY = -3
HEAL_EVENTS = frozenset({"fault.heal", "fault.linkup", "fault.reboot"})


class FaultEngine:
    """Schedules and applies one plan's faults on one network."""

    def __init__(
        self,
        network,
        plan: FaultPlan,
    ) -> None:
        plan.validate(network.node_ids())
        self.network = network
        self.plan = plan
        self.seed = network.seed
        self.trace = network.trace
        #: event-ordered record of every inject/heal, JSON-safe.
        self.timeline: List[dict] = []
        #: per-node local clocks the engine skews; tests and timesync
        #: scenarios share these via :meth:`clock`.
        self.clocks: Dict[int, NodeClock] = {}
        self.fragments_corrupted = 0
        registry = current_registry()
        if registry:
            # The timeline, counted by phase, is the inject / heal
            # counters.
            def injected() -> int:
                return sum(1 for e in self.timeline if e["phase"] == "inject")

            registry.counter("faults.injected", injected)
            registry.counter(
                "faults.healed", lambda: len(self.timeline) - injected()
            )
        self._fault_seed = derive_seed(self.seed, "faults")
        # node -> the duty cycles its MAC is held under: the MAC's own
        # (key None) and each active brownout's (key: action index)
        self._duties: Dict[int, Dict[Optional[int], float]] = {}
        # action index -> the corruption filter its window installed
        self._filters: Dict[int, Callable] = {}
        self.overlay: Optional[FaultOverlayPropagation] = None
        if plan.needs_overlay():
            self._install_overlay()
        for index, action in enumerate(plan.actions):
            self._schedule(index, action)

    # -- wiring --------------------------------------------------------------

    def _install_overlay(self) -> None:
        """Splice the link-fault overlay between the channel and its
        propagation model; the channel re-indexes itself so the fast
        path keeps honoring the (now overlay-owned) epoch."""
        network = self.network
        overlay = FaultOverlayPropagation(network.propagation)
        network.propagation = overlay
        network.channel.set_propagation(overlay)
        self.overlay = overlay

    def clock(self, node_id: int) -> NodeClock:
        """The engine's local clock for ``node_id`` (created exact on
        first use)."""
        clock = self.clocks.get(node_id)
        if clock is None:
            clock = self.clocks[node_id] = NodeClock()
        return clock

    def _note(self, index: int, action, phase: str, **detail) -> None:
        now = self.network.sim.now
        entry = {"t": now, "index": index, "kind": action.kind, "phase": phase}
        entry.update(detail)
        self.timeline.append(entry)
        self.trace.emit(
            now, f"fault.{phase}",
            node=detail.get("node"), kind=action.kind, index=index,
        )

    # -- scheduling ----------------------------------------------------------

    def _at(self, time: float, callback, *args, name: str) -> None:
        """Schedule a fault event at the priority its name gives it."""
        priority = HEAL_PRIORITY if name in HEAL_EVENTS else FAULT_PRIORITY
        self.network.sim.schedule_at(
            time, callback, *args, name=name, priority=priority
        )

    def _schedule(self, index: int, action) -> None:
        at = self._at
        if isinstance(action, NodeCrash):
            at(action.at, self._crash, index, action, name="fault.crash")
            if action.recover_at is not None:
                at(action.recover_at, self._reboot, index, action,
                   name="fault.reboot")
        elif isinstance(action, LinkFlap):
            period = action.effective_period
            for cycle in range(action.flaps):
                start = action.at + cycle * period
                at(start, self._link_down, index, action, name="fault.linkdown")
                at(start + action.down, self._link_up, index, action,
                   name="fault.linkup")
        elif isinstance(action, Partition):
            at(action.at, self._partition, index, action, name="fault.partition")
            at(action.heal_at, self._heal_partition, index, action,
               name="fault.heal")
        elif isinstance(action, ClockSkew):
            at(action.at, self._skew, index, action, name="fault.skew")
        elif isinstance(action, FragmentCorruption):
            at(action.at, self._corruption_on, index, action, name="fault.corrupt")
            at(action.at + action.duration, self._corruption_off, index, action,
               name="fault.heal")
        elif isinstance(action, EnergyBrownout):
            at(action.at, self._brownout_on, index, action,
               name="fault.brownout")
            at(action.at + action.duration, self._brownout_off, index, action,
               name="fault.heal")
        else:  # pragma: no cover - plan validation keeps this unreachable
            raise TypeError(f"unknown fault action {type(action).__name__}")

    # -- node crash / reboot -------------------------------------------------

    def _crash(self, index: int, action: NodeCrash) -> None:
        self.network.fail_node(action.node)
        self._note(index, action, "inject", node=action.node)

    def _reboot(self, index: int, action: NodeCrash) -> None:
        self.network.resurrect_node(action.node, clear_state=action.clear_state)
        self._note(
            index, action, "heal",
            node=action.node, clear_state=action.clear_state,
        )

    # -- link faults ---------------------------------------------------------

    def _link_down(self, index: int, action: LinkFlap) -> None:
        self.overlay.cut(index, ((action.a,), (action.b,)))
        self._note(index, action, "inject", a=action.a, b=action.b)

    def _link_up(self, index: int, action: LinkFlap) -> None:
        self.overlay.restore(index)
        self._note(index, action, "heal", a=action.a, b=action.b)

    def _partition(self, index: int, action: Partition) -> None:
        self.overlay.cut(index, action.groups)
        self._note(
            index, action, "inject",
            groups=[list(group) for group in action.groups],
        )

    def _heal_partition(self, index: int, action: Partition) -> None:
        self.overlay.restore(index)
        self._note(index, action, "heal")

    # -- clock skew ----------------------------------------------------------

    def _skew(self, index: int, action: ClockSkew) -> None:
        clock = self.clock(action.node)
        if action.offset:
            clock.adjust(action.offset)
        if action.drift_ppm:
            clock.drift_ppm += action.drift_ppm
        self._note(
            index, action, "inject",
            node=action.node, offset=action.offset, drift_ppm=action.drift_ppm,
        )

    # -- fragment corruption -------------------------------------------------

    def _corruption_on(self, index: int, action: FragmentCorruption) -> None:
        stack = self.network.stack(action.node)
        rng = make_rng(self._fault_seed, f"corruption:{index}")

        def corrupt(fragment, src) -> bool:
            if rng.random() >= action.rate:
                return True
            self.fragments_corrupted += 1
            trace_id = trace_id_of(fragment)
            if trace_id is not None:
                self.trace.emit(
                    self.network.sim.now,
                    "path.drop",
                    node=action.node,
                    trace=trace_id,
                    reason="fault-corruption",
                    layer="link",
                    src=src,
                )
            return False

        # One corruption window per node at a time; a later action on
        # the same node replaces the filter (documented in DESIGN.md).
        stack.frag.inbound_filter = self._filters[index] = corrupt
        self._note(index, action, "inject", node=action.node, rate=action.rate)

    def _corruption_off(self, index: int, action: FragmentCorruption) -> None:
        frag = self.network.stack(action.node).frag
        # Only this window's own filter: a later window replaced it.
        if frag.inbound_filter is self._filters.pop(index):
            frag.inbound_filter = None
        self._note(index, action, "heal", node=action.node)

    # -- energy brownout -----------------------------------------------------

    def _brownout_on(self, index: int, action: EnergyBrownout) -> None:
        mac = self.network.stack(action.node).mac
        duties = self._duties.setdefault(action.node, {None: mac.duty_cycle})
        duties[index] = action.duty_cycle
        mac.set_duty_cycle(min(duties.values()))
        self._note(
            index, action, "inject",
            node=action.node, duty_cycle=action.duty_cycle,
        )

    def _brownout_off(self, index: int, action: EnergyBrownout) -> None:
        duties = self._duties[action.node]
        del duties[index]
        self.network.stack(action.node).mac.set_duty_cycle(min(duties.values()))
        self._note(index, action, "heal", node=action.node)
