"""Closed-loop rate adaptation (paper Section 6.4 future work).

"Finally, the diffusion applications we currently use operate in an
open loop; feedback and congestion control are needed."

This module closes the loop using machinery the protocol already has:
the ``INTERVAL`` attribute that interests carry (Section 3.2's worked
example requests "interval IS 20ms") and the "subscribe for
subscriptions" pattern that lets sources see the interests tasking
them.

* :class:`RateAdaptingSource` reports at whatever interval the most
  recent matching interest requested, instead of a fixed timer —
  re-tasking a source is just re-subscribing.
* :class:`AdaptiveSink` watches its own loss rate (sequence gaps) and
  re-issues its subscription with a longer interval when loss is high,
  shorter when the network has headroom — a simple AIMD-flavoured
  controller over the existing naming machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.api import DiffusionRouting, SubscriptionHandle
from repro.naming import AttributeVector
from repro.naming.keys import ClassValue, Key


class RateAdaptingSource:
    """A source whose reporting rate follows the interests tasking it."""

    def __init__(
        self,
        api: DiffusionRouting,
        task_type: str,
        default_interval: float = 6.0,
        min_interval: float = 0.5,
        event_bytes: int = 112,
    ) -> None:
        self.api = api
        self.task_type = task_type
        self.interval = default_interval
        self.min_interval = min_interval
        self.event_bytes = event_bytes
        self.events_sent = 0
        self.retaskings = 0
        self._publication_attrs = (
            AttributeVector.builder().actual(Key.TYPE, task_type).build()
        )
        self._publication = api.publish(self._publication_attrs)
        # Subscribe for subscriptions: interests matching our data tell
        # us how fast to report.
        watch = (
            AttributeVector.builder()
            .eq(Key.CLASS, int(ClassValue.INTEREST))
            .actual(Key.TYPE, task_type)
            .build()
        )
        api.subscribe(watch, self._on_interest)
        self._timer = api.node.sim.schedule(
            default_interval, self._tick, name="rateadapt.tick"
        )

    def _on_interest(self, attrs: AttributeVector, message) -> None:
        requested_ms = attrs.value_of(Key.INTERVAL)
        if requested_ms is None:
            return
        requested = max(self.min_interval, float(requested_ms) / 1000.0)
        if abs(requested - self.interval) > 1e-9:
            self.retaskings += 1
            self.interval = requested

    def _tick(self) -> None:
        from repro.apps.sensors import _pad_to

        attrs = (
            AttributeVector.builder()
            .actual(Key.SEQUENCE, self.events_sent)
            .build()
        )
        padding = _pad_to(
            self._publication_attrs,
            attrs,
            self.event_bytes,
            self.api.node.config.header_bytes,
        )
        self.api.send(self._publication, attrs, padding_bytes=padding)
        self.events_sent += 1
        self._timer = self.api.node.sim.schedule(
            self.interval, self._tick, name="rateadapt.tick"
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()


@dataclass
class RateEpochStats:
    """One controller evaluation window."""

    time: float
    interval_ms: int
    received: int
    expected: int

    @property
    def loss(self) -> float:
        if self.expected <= 0:
            return 0.0
        return max(0.0, 1.0 - self.received / self.expected)


class AdaptiveSink:
    """Subscribes with an interval and adapts it to observed loss.

    Controller: every ``epoch`` seconds, compare received event count
    against what the current rate should have produced.  Loss above
    ``back_off_loss`` → multiply the interval by ``back_off_factor``
    (slow down, multiplicative).  Loss below ``speed_up_loss`` →
    subtract ``speed_up_ms`` (speed up, additive).  Interval is clamped
    to [min_interval_ms, max_interval_ms].  Changing the interval means
    re-subscribing: a new interest (different actuals) re-tasks the
    sources.
    """

    def __init__(
        self,
        api: DiffusionRouting,
        task_type: str,
        initial_interval_ms: int = 1000,
        min_interval_ms: int = 500,
        max_interval_ms: int = 30_000,
        epoch: float = 30.0,
        back_off_loss: float = 0.3,
        speed_up_loss: float = 0.05,
        back_off_factor: float = 2.0,
        speed_up_ms: int = 500,
    ) -> None:
        self.api = api
        self.task_type = task_type
        self.interval_ms = initial_interval_ms
        self.min_interval_ms = min_interval_ms
        self.max_interval_ms = max_interval_ms
        self.epoch = epoch
        self.back_off_loss = back_off_loss
        self.speed_up_loss = speed_up_loss
        self.back_off_factor = back_off_factor
        self.speed_up_ms = speed_up_ms
        self.events_received = 0
        self.history: List[RateEpochStats] = []
        self._epoch_received = 0
        #: every data origin ever heard from (sources we have tasked)
        self.known_origins: set = set()
        self._subscription: Optional[SubscriptionHandle] = None
        self._skip_next_epoch = False
        self._resubscribe()
        self._timer = api.node.sim.schedule(
            epoch, self._evaluate, name="rateadapt.epoch"
        )

    # -- subscription management ------------------------------------------

    def _subscription_attrs(self) -> AttributeVector:
        return (
            AttributeVector.builder()
            .eq(Key.TYPE, self.task_type)
            .actual(Key.INTERVAL, self.interval_ms)
            .build()
        )

    def _resubscribe(self) -> None:
        if self._subscription is not None:
            self.api.unsubscribe(self._subscription)
        self._subscription = self.api.subscribe(
            self._subscription_attrs(), self._on_event
        )

    def _on_event(self, attrs: AttributeVector, message) -> None:
        self.events_received += 1
        self._epoch_received += 1
        if message.data_origin is not None:
            self.known_origins.add(message.data_origin)

    # -- the controller ---------------------------------------------------------

    def _epoch_counts(self):
        """(received, expected) for the closing epoch.

        Sources honor our requested INTERVAL (that is the whole point
        of carrying it in the interest), so each known origin should
        have produced ``epoch / interval`` events.  Counting against
        that — rather than against sequence gaps inside the epoch —
        makes bursty blackouts visible: a silent epoch is 100% loss,
        not an absence of evidence."""
        received = self._epoch_received
        per_origin = self.epoch * 1000.0 / self.interval_ms
        expected = int(round(len(self.known_origins) * per_origin))
        if not self.known_origins:
            expected = received  # nothing tasked yet: no signal
        return received, expected

    def _evaluate(self) -> None:
        received, expected = self._epoch_counts()
        stats = RateEpochStats(
            time=self.api.node.sim.now,
            interval_ms=self.interval_ms,
            received=received,
            expected=expected,
        )
        self.history.append(stats)
        self._epoch_received = 0
        if self._skip_next_epoch:
            # The epoch that follows a re-tasking mixes old-rate and
            # new-rate traffic; its loss estimate is meaningless.
            self._skip_next_epoch = False
            self._timer = self.api.node.sim.schedule(
                self.epoch, self._evaluate, name="rateadapt.epoch"
            )
            return
        new_interval = self.interval_ms
        if stats.loss > self.back_off_loss:
            new_interval = int(self.interval_ms * self.back_off_factor)
        elif stats.loss < self.speed_up_loss:
            new_interval = self.interval_ms - self.speed_up_ms
        new_interval = max(
            self.min_interval_ms, min(self.max_interval_ms, new_interval)
        )
        if new_interval != self.interval_ms:
            self.interval_ms = new_interval
            self._skip_next_epoch = True
            self._resubscribe()
        self._timer = self.api.node.sim.schedule(
            self.epoch, self._evaluate, name="rateadapt.epoch"
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
