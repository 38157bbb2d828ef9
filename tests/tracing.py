"""An in-memory trace listener for tests.

No run keeps a whole trace in memory: ``repro run --trace`` streams it to
JSONL (:class:`repro.analysis.tracelog.TraceLogger`) and the flight
recorder keeps bounded rings.  Tests that read a run's records back
collect them here.
"""

from typing import Any, List, Optional

from repro.sim import TraceBus, TraceRecord


class TraceCollector:
    """Accumulates every record of a bus in a list.

    A collector holds a live subscription on the bus, which keeps
    ``emit`` on its slow path; call :meth:`detach` (or use the
    collector as a context manager) when done so a short-lived probe
    does not tax the rest of the run.
    """

    def __init__(self, bus: TraceBus) -> None:
        self.records: List[TraceRecord] = []
        self._bus: Optional[TraceBus] = bus
        bus.subscribe("*", self.records.append)

    @property
    def attached(self) -> bool:
        return self._bus is not None

    def detach(self) -> None:
        """Unsubscribe from the bus; the records stay readable."""
        if self._bus is not None:
            self._bus.unsubscribe("*", self.records.append)
            self._bus = None

    def __enter__(self) -> "TraceCollector":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    def by_category(self, category: str) -> List[TraceRecord]:
        return [r for r in self.records if r.category == category]
