"""Repair metrics: how badly a fault hurt, and how fast repair came.

:class:`ResilienceProbe` watches the trace bus for data originated at
the sources (``path.origin``) and delivered at the sink
(``app.deliver``), then derives:

* **delivery ratio** over any window — during the fault, after the heal;
* **time-to-repair** — from the heal instant to the first delivery of a
  message originated *after* the heal (pre-fault messages still in
  flight don't count as repair);
* **repair intervals** — time-to-repair divided by the exploratory
  interval, the paper-native unit: soft-state repair cannot outrun the
  exploratory clock, so "repaired within k intervals" is the bounded
  reconvergence claim the tests assert.

The numbers reach a campaign trial through the resilience report
(:meth:`ResilienceProbe.report`), not through the metrics registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.trace import TraceRecord

#: message types that count as data for delivery accounting.
_DATA_TYPES = ("DATA", "EXPLORATORY_DATA")


class ResilienceProbe:
    """Delivery bookkeeping for one sink and a set of sources."""

    def __init__(self, network, sink: int, sources: Optional[List[int]] = None) -> None:
        self.network = network
        self.sink = sink
        self.sources = set(sources) if sources is not None else None
        #: (origination time, trace id), in event order.
        self.origins: List[Tuple[float, str]] = []
        #: trace id -> first delivery time at the sink.
        self.delivered: Dict[str, float] = {}
        self._attached = True
        network.trace.subscribe("path.origin", self._on_origin)
        network.trace.subscribe("app.deliver", self._on_deliver)

    def _on_origin(self, record: TraceRecord) -> None:
        if record.data.get("msg_type") not in _DATA_TYPES:
            return
        if self.sources is not None and record.node not in self.sources:
            return
        trace = record.data.get("trace")
        if trace is not None:
            self.origins.append((record.time, trace))

    def _on_deliver(self, record: TraceRecord) -> None:
        if record.node != self.sink:
            return
        if record.data.get("msg_type") not in _DATA_TYPES:
            return
        trace = record.data.get("trace")
        if trace is not None and trace not in self.delivered:
            self.delivered[trace] = record.time

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self.network.trace.unsubscribe("path.origin", self._on_origin)
        self.network.trace.unsubscribe("app.deliver", self._on_deliver)

    # -- derived metrics ------------------------------------------------------

    def delivery_ratio(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> Optional[float]:
        """Delivered fraction of messages originated in [start, end);
        None when nothing was originated in the window."""
        originated = 0
        delivered = 0
        for t, trace in self.origins:
            if t < start or (end is not None and t >= end):
                continue
            originated += 1
            if trace in self.delivered:
                delivered += 1
        if originated == 0:
            return None
        return delivered / originated

    def time_to_repair(self, heal_at: float) -> Optional[float]:
        """Delay from ``heal_at`` to the first delivery of a message
        originated at or after ``heal_at``; None if none arrived."""
        best: Optional[float] = None
        for t, trace in self.origins:
            if t < heal_at:
                continue
            arrival = self.delivered.get(trace)
            if arrival is None:
                continue
            delay = arrival - heal_at
            if best is None or delay < best:
                best = delay
        return best

    # -- reporting ------------------------------------------------------------

    def report(
        self,
        timeline: List[dict],
        exploratory_interval: float,
        run_until: float,
    ) -> dict:
        """Per-fault repair summary against an engine timeline."""
        by_index: Dict[int, List[dict]] = {}
        for entry in timeline:
            by_index.setdefault(entry["index"], []).append(entry)
        faults = []
        for index in sorted(by_index):
            entries = by_index[index]
            injects = [e["t"] for e in entries if e["phase"] == "inject"]
            heals = [e["t"] for e in entries if e["phase"] == "heal"]
            inject_at = min(injects) if injects else None
            heal_at = max(heals) if heals else None
            window_end = heal_at if heal_at is not None else run_until
            during = (
                self.delivery_ratio(inject_at, window_end)
                if inject_at is not None
                else None
            )
            after = (
                self.delivery_ratio(heal_at, run_until)
                if heal_at is not None
                else None
            )
            ttr = self.time_to_repair(heal_at) if heal_at is not None else None
            faults.append(
                {
                    "index": index,
                    "kind": entries[0]["kind"],
                    "inject_at": inject_at,
                    "heal_at": heal_at,
                    "delivery_during": during,
                    "delivery_after": after,
                    "time_to_repair": ttr,
                    "repair_intervals": (
                        ttr / exploratory_interval if ttr is not None else None
                    ),
                }
            )
        return {
            "faults": faults,
            "overall_delivery": self.delivery_ratio(0.0, run_until),
            "messages_originated": len(self.origins),
            "messages_delivered": len(self.delivered),
            "exploratory_interval": exploratory_interval,
        }
