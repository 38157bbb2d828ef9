"""The Figure 8 surveillance application.

A sink on one side of the testbed subscribes to detection events;
sources on the other side report synchronized detections every 6 s.
With aggregation enabled, every node runs a :class:`SuppressionFilter`
that passes the first copy of each event and suppresses the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set

from repro.apps.sensors import (
    SURVEILLANCE_TYPE,
    DetectionSource,
    SynchronizedEventClock,
)
from repro.core.api import DiffusionRouting
from repro.filters.aggregation import SuppressionFilter
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.testbed.network import SensorNetwork


class SurveillanceSink:
    """Counts distinct and total event receptions at the user node."""

    def __init__(
        self,
        api: DiffusionRouting,
        task_type: str = SURVEILLANCE_TYPE,
        interval_ms: int = 6000,
    ) -> None:
        self.api = api
        self.distinct_events: Set[int] = set()
        self.total_receptions = 0
        attrs = (
            AttributeVector.builder()
            .eq(Key.TYPE, task_type)
            .actual(Key.INTERVAL, interval_ms)
            .build()
        )
        self.handle = api.subscribe(attrs, self._on_data)

    def _on_data(self, attrs: AttributeVector, message) -> None:
        seq = attrs.value_of(Key.SEQUENCE)
        if seq is None:
            return
        self.total_receptions += 1
        self.distinct_events.add(int(seq))


@dataclass
class SurveillanceResult:
    """One trial's outcome, in Figure 8's units."""

    sources: int
    suppression: bool
    duration: float
    distinct_events_received: int
    total_receptions: int
    events_generated: int
    diffusion_bytes_sent: int
    diffusion_messages_sent: int

    @property
    def bytes_per_event(self) -> float:
        """Figure 8's y-axis: bytes sent from all diffusion modules,
        normalized to the number of distinct events received."""
        if self.distinct_events_received == 0:
            return float("inf")
        return self.diffusion_bytes_sent / self.distinct_events_received

    @property
    def delivery_ratio(self) -> float:
        """Fraction of generated distinct events that reached the sink."""
        if self.events_generated == 0:
            return 0.0
        return self.distinct_events_received / self.events_generated


class SurveillanceExperiment:
    """Wires sink, sources, and (optionally) suppression filters."""

    def __init__(
        self,
        network: SensorNetwork,
        sink_id: int,
        source_ids: Sequence[int],
        suppression: bool = True,
        event_interval: float = 6.0,
        event_bytes: int = 112,
        task_type: str = SURVEILLANCE_TYPE,
        warmup: float = 10.0,
    ) -> None:
        self.network = network
        self.sink_id = sink_id
        self.source_ids = list(source_ids)
        self.suppression = suppression
        self.clock = SynchronizedEventClock(interval=event_interval)
        self.sink = SurveillanceSink(network.api(sink_id), task_type=task_type)
        self.filters: List[SuppressionFilter] = []
        if suppression:
            match = AttributeVector.builder().eq(Key.TYPE, task_type).build()
            for node_id in network.node_ids():
                self.filters.append(
                    SuppressionFilter(network.node(node_id), match_attrs=match)
                )
        self.sources = [
            DetectionSource(
                network.api(node_id),
                self.clock,
                event_bytes=event_bytes,
                task_type=task_type,
                start=warmup,
            )
            for node_id in self.source_ids
        ]

    def run(self, duration: float) -> SurveillanceResult:
        self.network.run(until=duration)
        return self.result(duration)

    def result(self, duration: float) -> SurveillanceResult:
        """What a run of ``duration`` seconds has measured so far."""
        # Sequence numbers are synchronized, so the distinct events
        # generated equal what any single source emitted.
        generated = max((s.events_generated for s in self.sources), default=0)
        return SurveillanceResult(
            sources=len(self.sources),
            suppression=self.suppression,
            duration=duration,
            distinct_events_received=len(self.sink.distinct_events),
            total_receptions=self.sink.total_receptions,
            events_generated=generated,
            diffusion_bytes_sent=self.network.total_diffusion_bytes_sent(),
            diffusion_messages_sent=self.network.total_diffusion_messages_sent(),
        )
