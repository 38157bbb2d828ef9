"""Synthetic sensors.

The paper generated events artificially "for experiment repeatability
... rather than taken from a physical sensor and signal processing";
these classes do the same on the simulated testbed:

* :class:`DetectionSource` — the Figure 8 surveillance source: one
  112-byte detection event every 6 seconds, sequence numbers
  synchronized across sources (overlapping coverage means every source
  reports the *same* events).
* :class:`LightSensor` — the Figure 9 initial sensor: state toggles
  every minute on the minute, reported every 2 seconds.
* :class:`AudioEmitter` — the Figure 9 triggered sensor's output side.
"""

from __future__ import annotations

import math

from repro.core.api import DiffusionRouting, PublicationHandle
from repro.naming import AttributeVector, encoded_size
from repro.naming.keys import Key

SURVEILLANCE_TYPE = "surveillance"
LIGHT_TYPE = "light"
AUDIO_TYPE = "audio"


class SynchronizedEventClock:
    """Global event numbering shared by overlapping sensors.

    "All sources generate events representing the detection of some
    object at the rate of one event every 6 seconds ... given sequence
    numbers that are synchronized at experiment start."
    """

    def __init__(self, interval: float = 6.0, epoch: float = 0.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.epoch = epoch

    def sequence_at(self, now: float) -> int:
        return int(math.floor((now - self.epoch) / self.interval))

    def next_event_time(self, now: float) -> float:
        return self.epoch + (self.sequence_at(now) + 1) * self.interval


def _pad_to(
    publication: AttributeVector,
    attrs: AttributeVector,
    target_bytes: int,
    header_bytes: int,
) -> int:
    """Padding needed so a message carrying ``publication`` merged with
    ``attrs`` totals ``target_bytes``."""
    base = (
        header_bytes
        + encoded_size(())  # the attribute-count field
        + publication.wire_size()
        + attrs.wire_size()
    )
    return max(0, target_bytes - base)


class DetectionSource:
    """Figure 8 source: periodic synchronized detection events."""

    def __init__(
        self,
        api: DiffusionRouting,
        clock: SynchronizedEventClock,
        event_bytes: int = 112,
        task_type: str = SURVEILLANCE_TYPE,
        start: float = 0.0,
    ) -> None:
        self.api = api
        self.clock = clock
        self.event_bytes = event_bytes
        self.task_type = task_type
        self.events_generated = 0
        self._publication_attrs = (
            AttributeVector.builder().actual(Key.TYPE, task_type).build()
        )
        self._publication: PublicationHandle = api.publish(self._publication_attrs)
        self._timer = None
        sim = api.node.sim
        first = max(start, clock.next_event_time(sim.now))
        self._timer = sim.schedule_at(first, self._tick, name="source.tick")

    def _tick(self) -> None:
        sim = self.api.node.sim
        seq = self.clock.sequence_at(sim.now)
        attrs = (
            AttributeVector.builder()
            .actual(Key.SEQUENCE, seq)
            .actual(Key.TIMESTAMP, int(sim.now * 1000))
            .actual(Key.INSTANCE, f"node-{self.api.node_id}")
            .build()
        )
        padding = _pad_to(
            self._publication_attrs,
            attrs,
            self.event_bytes,
            self.api.node.config.header_bytes,
        )
        self.api.send(self._publication, attrs, padding_bytes=padding)
        self.events_generated += 1
        self._timer = sim.schedule_at(
            self.clock.next_event_time(sim.now), self._tick, name="source.tick"
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()


class LightSensor:
    """Figure 9 initial sensor.

    "We simulate light data to change automatically every minute on the
    minute.  Light sensors report their state every 2s."  Reports carry
    the state *epoch* (``floor(now / toggle_interval)``) so receivers
    detect changes robustly even across lost reports.
    """

    def __init__(
        self,
        api: DiffusionRouting,
        report_interval: float = 2.0,
        toggle_interval: float = 60.0,
        message_bytes: int = 100,
        light_type: str = LIGHT_TYPE,
        phase: float = 0.0,
    ) -> None:
        self.api = api
        self.report_interval = report_interval
        self.toggle_interval = toggle_interval
        self.message_bytes = message_bytes
        self.light_type = light_type
        self.reports_sent = 0
        self._publication_attrs = (
            AttributeVector.builder()
            .actual(Key.TYPE, light_type)
            .actual(Key.INSTANCE, f"light-{api.node_id}")
            .build()
        )
        self._publication = api.publish(self._publication_attrs)
        # Reports are phase-offset per sensor: "no special attempt is
        # made to synchronize or unsynchronize sensors" (Section 6.2),
        # and real sensors do not tick in lockstep.
        self._timer = api.node.sim.schedule(
            phase % report_interval, self._tick, name="light.tick"
        )

    def state_epoch(self, now: float) -> int:
        return int(math.floor(now / self.toggle_interval))

    def state(self, now: float) -> int:
        return self.state_epoch(now) % 2

    def _tick(self) -> None:
        sim = self.api.node.sim
        epoch = self.state_epoch(sim.now)
        attrs = (
            AttributeVector.builder()
            .actual(Key.TRIGGER_STATE, self.state(sim.now))
            .actual(Key.TIMESTAMP, epoch)
            .actual(Key.SEQUENCE, self.reports_sent)
            .build()
        )
        padding = _pad_to(
            self._publication_attrs,
            attrs,
            self.message_bytes,
            self.api.node.config.header_bytes,
        )
        self.api.send(self._publication, attrs, padding_bytes=padding)
        self.reports_sent += 1
        self._timer = sim.schedule(self.report_interval, self._tick, name="light.tick")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()


class AudioEmitter:
    """The output side of the Figure 9 triggered (audio) sensor."""

    def __init__(
        self,
        api: DiffusionRouting,
        message_bytes: int = 100,
        audio_type: str = AUDIO_TYPE,
    ) -> None:
        self.api = api
        self.message_bytes = message_bytes
        self.audio_type = audio_type
        self.emissions = 0
        self._publication_attrs = (
            AttributeVector.builder().actual(Key.TYPE, audio_type).build()
        )
        self._publication = api.publish(self._publication_attrs)

    def emit(self, light_instance: str, epoch: int) -> None:
        """Send one audio sample correlated with a light change."""
        attrs = (
            AttributeVector.builder()
            .actual(Key.INSTANCE, light_instance)
            .actual(Key.TIMESTAMP, epoch)
            .build()
        )
        padding = _pad_to(
            self._publication_attrs,
            attrs,
            self.message_bytes,
            self.api.node.config.header_bytes,
        )
        self.api.send(self._publication, attrs, padding_bytes=padding)
        self.emissions += 1
