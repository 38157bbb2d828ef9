"""In-network data aggregation filters (paper Sections 5.1 and 6.1).

The surveillance experiment deploys :class:`SuppressionFilter` on every
node: overlapping sensors detect the same object and tag their reports
with synchronized sequence numbers; the filter forwards the first copy
of each sequence number and suppresses the rest, cutting traffic by up
to 42% with four sources.

:class:`CountingAggregationFilter` implements the paper's sketched
refinement: hold the first report briefly, count how many sensors
reported the same event, annotate the surviving message, and forward
one aggregate.  It trades a little latency for a detection count.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.core.cache import DataCache
from repro.core.filter_api import FilterHandle, GRADIENT_FILTER_PRIORITY
from repro.core.messages import Message
from repro.core.node import DiffusionNode
from repro.naming import AttributeVector
from repro.naming.attribute import Attribute, Operator, ValueType
from repro.naming.keys import Key

#: both aggregation filters sit above the gradient filter, so a
#: suppressed or absorbed report costs this node nothing on the radio.
AGGREGATION_FILTER_PRIORITY = GRADIENT_FILTER_PRIORITY + 20
#: how long a counted event's identity is remembered after its
#: aggregate left: later reports of it are absorbed, not re-counted.
AGGREGATION_WINDOW = 30.0


def _event_key(message: Message) -> Optional[Tuple]:
    """Identity of the sensed event: the synchronized sequence number.

    Returns None when the message carries no sequence number, in which
    case aggregation does not apply.
    """
    seq = message.attrs.value_of(Key.SEQUENCE)
    if seq is None:
        return None
    return ("event", message.attrs.value_of(Key.TYPE), seq)


class SuppressionFilter:
    """Forward the first copy of each event; drop duplicates.

    Registered above the gradient filter so suppression happens before
    routing: a suppressed message costs this node nothing on the radio.
    The paper's variant "does not affect latency at all, since we
    forward unique events immediately upon reception and then suppress
    any additional duplicates".
    """

    def __init__(
        self,
        node: DiffusionNode,
        match_attrs: Optional[AttributeVector] = None,
        window: float = 30.0,
    ) -> None:
        self.node = node
        self.seen = DataCache(capacity=256, timeout=window)
        self.suppressed = 0
        self.passed = 0
        self.handle = node.add_filter(
            match_attrs if match_attrs is not None else AttributeVector(),
            AGGREGATION_FILTER_PRIORITY,
            self._callback,
            name="suppression",
        )

    def _callback(self, message: Message, handle: FilterHandle) -> None:
        if not message.msg_type.is_data:
            self.node.send_message(message, handle)
            return
        key = _event_key(message)
        if key is None:
            self.node.send_message(message, handle)
            return
        if self.seen.seen_before(key, self.node.sim.now):
            self.suppressed += 1
            return  # drop: do not re-inject
        self.passed += 1
        self.node.send_message(message, handle)

    def remove(self) -> None:
        self.node.remove_filter(self.handle)


class CountingAggregationFilter:
    """Delay, count detections, annotate, forward one aggregate.

    The first report of an event is held for ``delay`` seconds; further
    reports of the same event increment a counter and are dropped.  When
    the timer fires, the held message is forwarded annotated with the
    number of concurring detections (carried in ``DETECTIONS_KEY``), so
    downstream nodes and the sink learn how many sensors agreed.
    """

    #: attribute key carrying the number of concurring detections
    DETECTIONS_KEY = int(Key.INTENSITY)

    def __init__(self, node: DiffusionNode, delay: float = 0.5) -> None:
        self.node = node
        self.delay = delay
        # event key -> [message, count, timer_event]
        self._pending: Dict[Tuple, list] = {}
        self._done = DataCache(capacity=256, timeout=AGGREGATION_WINDOW)
        self.aggregates_sent = 0
        self.reports_absorbed = 0
        self.handle = node.add_filter(
            AttributeVector(),
            AGGREGATION_FILTER_PRIORITY,
            self._callback,
            name="counting-aggregation",
        )

    def _callback(self, message: Message, handle: FilterHandle) -> None:
        if not message.msg_type.is_data:
            self.node.send_message(message, handle)
            return
        key = _event_key(message)
        if key is None:
            self.node.send_message(message, handle)
            return
        now = self.node.sim.now
        if self._done.contains(key, now):
            self.reports_absorbed += 1
            return  # aggregate already sent for this event
        pending = self._pending.get(key)
        if pending is not None:
            pending[1] += 1
            self.reports_absorbed += 1
            return
        timer = self.node.sim.schedule(
            self.delay, self._flush, key, name="aggregation.flush"
        )
        self._pending[key] = [message, 1, timer]

    def _flush(self, key: Tuple) -> None:
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        message, count, _ = pending
        self._done.insert(key, self.node.sim.now)
        count_attr = Attribute(
            self.DETECTIONS_KEY, ValueType.INT32, Operator.IS, count
        )
        annotated = replace(
            message,
            attrs=message.attrs.without_key(self.DETECTIONS_KEY).with_attribute(
                count_attr
            ),
        )
        self.aggregates_sent += 1
        self.node.send_message(annotated, self.handle)

    def remove(self) -> None:
        for pending in self._pending.values():
            pending[2].cancel()
        self._pending.clear()
        self.node.remove_filter(self.handle)
