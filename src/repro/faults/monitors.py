"""Online invariant monitors: what must stay true while things break.

The monitors ride the observability buses (PR-2): trace-driven checks
react to individual protocol events; state-driven checks probe node
tables on a periodic schedule.  A violated invariant is recorded as a
:class:`Violation` — with the causal trace id when one exists — and
counted on the ``faults.violations`` metric; :meth:`MonitorSuite.assert_ok`
raises so tests fail loudly.

Invariants (from the paper's protocol obligations):

no-forwarding-loop
    A data message must never be transmitted by the same node at two
    different hop counts — that is a routing loop.  (One node may
    legitimately transmit the same trace several times at the *same*
    hop count: exploratory data fans out to every gradient neighbor.)

gradient-bound
    Soft state must stay bounded: a node's gradient table holds at most
    ``max_entries`` interests, and no entry accumulates more gradients
    than the network has nodes.  Expiry sweeps, not faults, enforce
    this — a fault that breaks sweeping shows up here.

reinforcement-uniqueness
    A sink reinforces at most ``multipath_degree`` distinct next-hops
    per data origin (Section 4's "reinforce one particular neighbor"),
    with no duplicates in the preferred list.

reboot-coherence
    Immediately after a reboot-with-state-loss the node's gradient
    table and duplicate cache must be empty — inherited soft state
    would fake repair and mask real convergence time.

custody-conservation
    Custody is a promise: a block accepted into a
    :class:`~repro.dtn.custody.CustodyStore` must leave it only through
    an explicit ``custody.transfer`` or ``custody.expire`` event, and
    those events must refer to a block that was actually accepted.  The
    trace-driven side mirrors the ``custody.*`` bus events into a
    held-set; the state-driven side (for agents registered via
    :meth:`MonitorSuite.watch_custody`) cross-validates each store
    against that mirror on every probe — an entry in the store with no
    accept event is a ghost, a mirrored promise missing from the store
    was dropped silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.sim.metrics import current_registry
from repro.sim.trace import FlightRecorder, TraceRecord


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    time: float
    invariant: str
    node: Optional[int]
    trace: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        where = f"node {self.node}" if self.node is not None else "network"
        cause = f" trace={self.trace}" if self.trace else ""
        extra = f" {self.detail}" if self.detail else ""
        return f"t={self.time:.3f} [{self.invariant}] {where}{cause}{extra}"


class InvariantViolationError(AssertionError):
    """Raised by :meth:`MonitorSuite.assert_ok` when invariants broke."""

    def __init__(self, violations: List[Violation]) -> None:
        lines = "\n".join(v.describe() for v in violations[:20])
        more = len(violations) - 20
        if more > 0:
            lines += f"\n... and {more} more"
        super().__init__(f"{len(violations)} invariant violation(s):\n{lines}")
        self.violations = violations


class MonitorSuite:
    """All invariant monitors over one :class:`SensorNetwork`.

    Trace-driven checks (forwarding loops, reboot coherence) fire
    synchronously on bus events; state-driven checks (gradient bounds,
    reinforcement uniqueness) run every :attr:`PROBE_INTERVAL` seconds and
    once more at :meth:`detach`.

    Pass a :class:`~repro.sim.trace.FlightRecorder` (plus a
    ``dump_path``) to get a postmortem on the *first* violation: the
    recorder's rings — the most recent trace events per node, all of
    which causally precede the violation since recording and checking
    are synchronous on the same bus — are dumped to JSONL before the
    run continues, so the lead-up survives even if the process dies
    later.
    """

    #: retain at most this many (node, trace) hop records for loop
    #: detection; traces are short-lived, so eviction of the oldest
    #: entries cannot miss a live loop.
    LOOP_WINDOW = 4096
    #: seconds between probes of the state-driven checks.
    PROBE_INTERVAL = 5.0
    #: a probe reads its instant's state after all of its other events.
    PROBE_PRIORITY = 1
    #: a data message past this many hops per network node is looping.
    HOPS_PER_NODE = 2

    def __init__(
        self,
        network,
        max_entries: int = 32,
        recorder: Optional[FlightRecorder] = None,
        dump_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.network = network
        self.recorder = recorder
        self.dump_path = Path(dump_path) if dump_path is not None else None
        self.dumped: Optional[int] = None   # records written, once dumped
        self.max_entries = max_entries
        self.max_hops = self.HOPS_PER_NODE * len(network.node_ids())
        self.violations: List[Violation] = []
        registry = current_registry()
        if registry:
            registry.counter(
                "faults.violations", lambda: len(self.violations)
            )
        # (node, trace) -> hop count at first transmission
        self._tx_hops: Dict[Tuple[int, str], int] = {}
        # (node, object, index) -> trace id, mirrored from custody.* events
        self._custody_held: Dict[Tuple[int, str, int], Optional[str]] = {}
        self._custody_agents: List = []
        self._attached = True
        network.trace.subscribe("diffusion.tx", self._on_tx)
        network.trace.subscribe("node.reboot", self._on_reboot)
        network.trace.subscribe("custody.accept", self._on_custody)
        network.trace.subscribe("custody.transfer", self._on_custody)
        network.trace.subscribe("custody.expire", self._on_custody)
        self._schedule_probe()

    # -- recording -----------------------------------------------------------

    def _record(
        self,
        invariant: str,
        node: Optional[int],
        trace: Optional[str] = None,
        **detail,
    ) -> None:
        violation = Violation(
            time=self.network.sim.now,
            invariant=invariant,
            node=node,
            trace=trace,
            detail=detail,
        )
        self.violations.append(violation)
        if (
            self.recorder is not None
            and self.dump_path is not None
            and self.dumped is None
        ):
            # First violation: freeze the causal lead-up to disk now,
            # while the rings still end exactly at the breach.
            self.dumped = self.recorder.dump(
                self.dump_path,
                reason="invariant-violation",
                violation=violation.describe(),
                invariant=invariant,
            )

    # -- trace-driven invariants ----------------------------------------------

    def _on_tx(self, record: TraceRecord) -> None:
        if record.data.get("msg_type") not in ("DATA", "EXPLORATORY_DATA"):
            return
        trace = record.data.get("trace")
        node = record.node
        hops = record.data.get("hops")
        if trace is None or node is None or hops is None:
            return
        key = (node, trace)
        first = self._tx_hops.get(key)
        if first is None:
            if len(self._tx_hops) >= self.LOOP_WINDOW:
                self._tx_hops.pop(next(iter(self._tx_hops)))
            self._tx_hops[key] = hops
        elif first != hops:
            # Same node transmitting the same message at a different hop
            # count means the message came back around: a loop.
            self._record(
                "no-forwarding-loop", node, trace,
                first_hops=first, again_hops=hops,
            )
        if hops > self.max_hops:
            self._record(
                "no-forwarding-loop", node, trace,
                hops=hops, max_hops=self.max_hops,
            )

    def _on_custody(self, record: TraceRecord) -> None:
        data = record.data
        obj, index = data.get("object"), data.get("index")
        if record.node is None or obj is None or index is None:
            return
        key = (record.node, obj, index)
        if record.category == "custody.accept":
            if key in self._custody_held:
                # Accepting a block already under custody here would
                # double-count the promise.
                self._record(
                    "custody-conservation", record.node, data.get("trace"),
                    event="double-accept", object=obj, index=index,
                )
            self._custody_held[key] = data.get("trace")
        elif key in self._custody_held:
            del self._custody_held[key]
        else:
            # transfer/expire of a block never accepted: custody
            # appeared from nowhere.
            self._record(
                "custody-conservation", record.node, data.get("trace"),
                event=record.category, object=obj, index=index,
                detail_kind="release-without-accept",
            )

    def watch_custody(self, agent) -> None:
        """Cross-validate this agent's store on every state probe."""
        self._custody_agents.append(agent)

    def _on_reboot(self, record: TraceRecord) -> None:
        node = self.network.node(record.node)
        if len(node.gradients) != 0:
            self._record(
                "reboot-coherence", record.node,
                gradient_entries=len(node.gradients),
            )
        if len(node.cache) != 0:
            self._record(
                "reboot-coherence", record.node, cache_entries=len(node.cache)
            )

    # -- state-driven invariants ----------------------------------------------

    def _schedule_probe(self) -> None:
        sim = self.network.sim
        self._probe_event = sim.schedule_at(
            sim.now + self.PROBE_INTERVAL, self._probe,
            name="faults.probe", priority=self.PROBE_PRIORITY,
        )

    def _probe(self) -> None:
        self.check()
        self._schedule_probe()

    def check(self) -> None:
        """Probe every node's tables once (also runs on a schedule)."""
        node_count = len(self.network.node_ids())
        degree = self.network.config.multipath_degree
        for node_id in self.network.node_ids():
            node = self.network.node(node_id)
            table = node.gradients
            if len(table) > self.max_entries:
                self._record(
                    "gradient-bound", node_id,
                    entries=len(table), max_entries=self.max_entries,
                )
            for entry in table.entries():
                if len(entry.gradients) > node_count:
                    self._record(
                        "gradient-bound", node_id,
                        gradients=len(entry.gradients), nodes=node_count,
                    )
                for origin, preferred in entry.sink_preferred.items():
                    if len(preferred) > degree or len(set(preferred)) != len(
                        preferred
                    ):
                        self._record(
                            "reinforcement-uniqueness", node_id,
                            origin=origin,
                            preferred=list(preferred),
                            multipath_degree=degree,
                        )
        for agent in self._custody_agents:
            node_id = agent.node.node_id
            in_store = {
                (node_id, entry.object_id, entry.index): entry.trace
                for entry in agent.store.entries()
            }
            mirrored = {
                key: trace
                for key, trace in self._custody_held.items()
                if key[0] == node_id
            }
            for key, trace in in_store.items():
                if key not in mirrored:
                    self._record(
                        "custody-conservation", node_id, trace,
                        object=key[1], index=key[2],
                        detail_kind="ghost-entry",
                    )
            for key, trace in mirrored.items():
                if key not in in_store:
                    self._record(
                        "custody-conservation", node_id, trace,
                        object=key[1], index=key[2],
                        detail_kind="silent-drop",
                    )

    # -- lifecycle ------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_ok(self) -> None:
        """Final check plus a loud failure if anything broke."""
        self.check()
        if self.violations:
            raise InvariantViolationError(self.violations)

    def detach(self) -> None:
        """Stop probing and unsubscribe (records stay readable)."""
        if not self._attached:
            return
        self._attached = False
        self.network.trace.unsubscribe("diffusion.tx", self._on_tx)
        self.network.trace.unsubscribe("node.reboot", self._on_reboot)
        self.network.trace.unsubscribe("custody.accept", self._on_custody)
        self.network.trace.unsubscribe("custody.transfer", self._on_custody)
        self.network.trace.unsubscribe("custody.expire", self._on_custody)
        if self._probe_event is not None:
            self._probe_event.cancel()
