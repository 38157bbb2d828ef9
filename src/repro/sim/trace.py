"""Trace bus: publish/subscribe instrumentation for experiments.

The paper's testbed used a separate wired network to collect experiment
data (Section 7).  The trace bus plays that role here: components emit
typed records, experiment harnesses subscribe to the categories they
need, and nothing is retained unless someone asked for it.

The :class:`FlightRecorder` is the postmortem complement: a bounded
per-node ring of the most recent records, dumped to JSONL only when
something goes wrong (an invariant violation, an injected fault), so a
failure report carries the causal lead-up instead of a bare counter.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union


@dataclass(frozen=True)
class TraceRecord:
    """One instrumentation sample."""

    time: float
    category: str
    node: Optional[int]
    data: Dict[str, Any] = field(default_factory=dict)


class TraceBus:
    """Routes :class:`TraceRecord` to per-category listeners.

    Listeners registered for category ``"*"`` receive every record.

    ``active`` counts the live subscriptions.  ``emit`` returns at once
    on a silent bus, but its arguments are evaluated by then: per-message
    and per-fragment callers put the call behind ``if bus.active`` so
    they are never built (``tests/test_trace_guard.py`` holds the hot
    layers to it).
    """

    def __init__(self) -> None:
        self._listeners: Dict[str, List[Callable[[TraceRecord], None]]] = {}
        # A plain attribute, not a property: the guard is one load.
        self.active = 0

    def subscribe(self, category: str, listener: Callable[[TraceRecord], None]) -> None:
        self._listeners.setdefault(category, []).append(listener)
        self.active += 1

    def unsubscribe(self, category: str, listener: Callable[[TraceRecord], None]) -> None:
        listeners = self._listeners.get(category, [])
        if listener in listeners:
            listeners.remove(listener)
            self.active -= 1

    def emit(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **data: Any,
    ) -> None:
        """Create and dispatch a record.  Cheap when nobody listens —
        the call, not the arguments the caller built for it."""
        if not self.active:
            return
        listeners = self._listeners.get(category)
        wildcard = self._listeners.get("*")
        if not listeners and not wildcard:
            return
        record = TraceRecord(time=time, category=category, node=node, data=data)
        for listener in listeners or ():
            listener(record)
        for listener in wildcard or ():
            listener(record)


class TraceCollector:
    """Convenience listener that accumulates records in a list.

    A collector holds a live subscription on the bus, which keeps
    ``emit`` on its slow path; call :meth:`detach` (or use the
    collector as a context manager) when done so short-lived probes in
    tests and benchmarks don't tax the rest of the run.
    """

    def __init__(self, bus: TraceBus, category: str = "*") -> None:
        self.records: List[TraceRecord] = []
        self._bus: Optional[TraceBus] = bus
        self._category = category
        bus.subscribe(category, self.records.append)

    @property
    def attached(self) -> bool:
        return self._bus is not None

    def detach(self) -> None:
        """Unsubscribe from the bus; the records stay readable."""
        if self._bus is not None:
            self._bus.unsubscribe(self._category, self.records.append)
            self._bus = None

    def __enter__(self) -> "TraceCollector":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    def by_category(self, category: str) -> List[TraceRecord]:
        return [r for r in self.records if r.category == category]


def _jsonable_value(value: Any) -> Any:
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable_value(v) for v in value]
    return repr(value)


def _jsonable(data: Dict) -> Dict:
    """JSON-safe copy of a record's data: containers are serialized
    recursively, bytes become hex, and only genuinely opaque objects
    fall back to ``repr``."""
    return {str(key): _jsonable_value(value) for key, value in data.items()}


class FlightRecorder:
    """Bounded per-node rings of recent trace records, for postmortems.

    An aircraft flight recorder does not stream telemetry to the
    ground; it keeps the last few minutes in a crash-survivable loop.
    Same deal here: the recorder subscribes to every category, appends
    each record to a ring keyed by the record's node (``None`` for
    network-level events like channel verdicts), and drops the oldest
    entry once a ring holds ``per_node_capacity`` records.  Memory is
    therefore O(nodes × capacity) no matter how long the run.

    On trouble, :meth:`dump` writes the retained records — merged back
    into arrival order across rings — as :mod:`repro.analysis.tracelog`
    compatible JSONL, prefixed with one ``flight.header`` record naming
    the reason, so ``python -m repro trace summarize`` can read a crash
    dump like any other trace.

    Sizing: the default ring of 128 records per node comfortably covers
    the ≥64-event causal window a postmortem wants (a diffusion node
    emits a handful of records per exploratory interval), while keeping
    a 100-node run's worst case near ~13k retained records.
    """

    def __init__(
        self,
        bus: TraceBus,
        per_node_capacity: int = 128,
    ) -> None:
        if per_node_capacity < 1:
            raise ValueError("per_node_capacity must be >= 1")
        self.per_node_capacity = per_node_capacity
        self.records_seen = 0
        self.dumps = 0
        self._rings: Dict[Optional[int], deque] = {}
        self._bus: Optional[TraceBus] = bus
        bus.subscribe("*", self._on_record)

    def _on_record(self, record: TraceRecord) -> None:
        self.records_seen += 1
        ring = self._rings.get(record.node)
        if ring is None:
            ring = self._rings[record.node] = deque(
                maxlen=self.per_node_capacity
            )
        # Stamp arrival order so the merged dump is totally ordered even
        # across same-time records from different nodes.
        ring.append((self.records_seen, record))

    @property
    def attached(self) -> bool:
        return self._bus is not None

    def detach(self) -> None:
        """Unsubscribe; the retained rings stay dumpable."""
        if self._bus is not None:
            self._bus.unsubscribe("*", self._on_record)
            self._bus = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    @property
    def retained(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def snapshot(self) -> List[TraceRecord]:
        """The retained records, in original arrival order."""
        merged = sorted(
            (entry for ring in self._rings.values() for entry in ring),
            key=lambda entry: entry[0],
        )
        return [record for _seq, record in merged]

    def dump(
        self,
        path: Union[str, Path],
        reason: str = "",
        **context: Any,
    ) -> int:
        """Write the rings to ``path`` as tracelog-style JSONL.

        The first line is a ``flight.header`` record carrying the
        reason and any extra context (the violation's describe() text,
        the fault that fired, ...); every following line is a retained
        record, oldest first.  Returns the number of event records
        written (header excluded).
        """
        records = self.snapshot()
        last_time = records[-1].time if records else 0.0
        with Path(path).open("w") as handle:
            header = {
                "t": last_time,
                "cat": "flight.header",
                "node": None,
                "data": _jsonable(
                    {
                        "reason": reason,
                        "records": len(records),
                        "records_seen": self.records_seen,
                        "per_node_capacity": self.per_node_capacity,
                        "nodes": sorted(
                            k for k in self._rings if k is not None
                        ),
                        **context,
                    }
                ),
            }
            handle.write(json.dumps(header) + "\n")
            for record in records:
                handle.write(
                    json.dumps(
                        {
                            "t": record.time,
                            "cat": record.category,
                            "node": record.node,
                            "data": _jsonable(record.data),
                        }
                    )
                    + "\n"
                )
        self.dumps += 1
        return len(records)


def trace_id_of(payload: Any) -> Optional[str]:
    """The trace id carried by a payload, unwrapping link fragments.

    Lower layers (MAC queues, the channel, reassembly) see either a
    diffusion :class:`~repro.core.messages.Message` or a
    :class:`~repro.link.frag.Fragment` wrapping one; both expose the
    originating message's trace id through here without the radio stack
    importing the protocol stack.
    """
    message = getattr(payload, "message", payload)
    trace_id = getattr(message, "trace_id", None)
    return trace_id if isinstance(trace_id, str) else None
