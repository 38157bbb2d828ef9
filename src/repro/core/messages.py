"""Diffusion messages.

Every message carries an attribute vector plus a small fixed header:
message class, a per-origin unique id (for duplicate suppression and
loop prevention), and hop-by-hop link addressing.  Nodes never use
end-to-end addresses — ``last_hop``/``next_hop`` name immediate
neighbors only (paper Section 3.1).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.naming import AttributeVector, encoded_size
from repro.naming.attribute import Attribute, Operator, ValueType
from repro.naming.keys import ClassValue, Key

#: link-layer broadcast marker for ``next_hop``
BROADCAST = None


class MessageType(enum.IntEnum):
    """Protocol-level message classes."""

    INTEREST = 1
    DATA = 2
    EXPLORATORY_DATA = 3
    POSITIVE_REINFORCEMENT = 4
    NEGATIVE_REINFORCEMENT = 5
    CONTROL = 6

    @property
    def class_value(self) -> ClassValue:
        """The implicit ``class IS ...`` attribute value for matching."""
        return ClassValue(_CLASS_ATTRIBUTE[self].value)

    @property
    def is_data(self) -> bool:
        return self in (MessageType.DATA, MessageType.EXPLORATORY_DATA)


#: the ready ``class IS <type>`` actual of every message class
_CLASS_ATTRIBUTE = {
    msg_type: Attribute(int(Key.CLASS), ValueType.INT32, Operator.IS, int(value))
    for msg_type, value in (
        (MessageType.INTEREST, ClassValue.INTEREST),
        (MessageType.DATA, ClassValue.DATA),
        (MessageType.EXPLORATORY_DATA, ClassValue.EXPLORATORY),
        (MessageType.POSITIVE_REINFORCEMENT, ClassValue.REINFORCEMENT),
        (MessageType.NEGATIVE_REINFORCEMENT, ClassValue.NEGATIVE_REINFORCEMENT),
        (MessageType.CONTROL, ClassValue.CONTROL),
    )
}

#: the attribute-count field: what an empty attribute list encodes to
_COUNT_BYTES = encoded_size(())

_msg_counter = itertools.count(1)


@dataclass
class Message:
    """One diffusion message.

    ``msg_id`` is unique per origin node; together with ``origin`` it
    identifies the message network-wide for duplicate suppression.
    ``data_origin``/``data_seq`` survive forwarding unchanged and
    identify the original data message a reinforcement refers to.
    """

    msg_type: MessageType
    attrs: AttributeVector
    origin: int                       # node that created this message
    msg_id: int                       # per-origin unique id
    last_hop: Optional[int] = None    # filled on reception
    next_hop: Optional[int] = BROADCAST
    # For reinforcements: which (interest, source) pair they concern.
    interest_digest: Optional[bytes] = None
    data_origin: Optional[int] = None
    # Push diffusion: the stable publication signature this data message
    # advertises (None for classic pull-mode data).
    push_attrs: Optional[AttributeVector] = None
    header_bytes: int = 24
    padding_bytes: int = 0            # explicit size padding (test harnesses)
    # Causal-tracing context: forwarding preserves identity (the trace
    # id) while counting hops; messages created *in response* to
    # another (per-hop reinforcements, data answering an interest) name
    # their trigger's trace id so offline analysis can walk the chain.
    hop_count: int = 0
    parent_trace: Optional[str] = None
    # Lazily-built ``attrs + class IS <type>`` vector; every filter in
    # the pipeline consults it.  A pure function of ``attrs`` and
    # ``msg_type``, so hop copies carry it (once per message, not once
    # per reception); a copy that rewrites either goes through
    # ``dataclasses.replace``, which resets it.
    _matching_attrs: Optional[AttributeVector] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def unique_id(self) -> Tuple[int, int]:
        return (self.origin, self.msg_id)

    @property
    def trace_id(self) -> str:
        """Network-wide stable identity of this message for tracing.

        Derived from ``(origin, msg_id)``, so every forwarded copy of a
        message shares one trace id and the path tools can stitch its
        hops back together from a recorded trace.
        """
        return f"{self.origin}.{self.msg_id}"

    @property
    def nbytes(self) -> int:
        """Bytes this message occupies on the wire."""
        payload = _COUNT_BYTES + self.attrs.wire_size()
        return self.header_bytes + payload + self.padding_bytes

    def matching_attrs(self) -> AttributeVector:
        """Attributes used for filter matching: payload attrs plus the
        implicit ``class IS <type>`` actual (paper Section 3.2)."""
        cached = self._matching_attrs
        if cached is None:
            cached = self.attrs.with_attribute(_CLASS_ATTRIBUTE[self.msg_type])
            self._matching_attrs = cached
        return cached

    def hop_copy(self) -> "Message":
        """Every field as it is (``msg_id`` and the cached matching
        vector too); the caller then sets the link addressing only."""
        copy = object.__new__(Message)
        copy.__dict__.update(self.__dict__)
        return copy

    def forwarded_copy(self, next_hop: Optional[int]) -> "Message":
        """A copy for retransmission: same identity, new next hop."""
        copy = self.hop_copy()
        copy.next_hop = next_hop
        copy.hop_count += 1
        return copy

    def __getstate__(self) -> dict:
        # The matching vector re-derives on demand: pickling it would
        # grow every ghost export a shard sends.
        state = self.__dict__.copy()
        state.pop("_matching_attrs", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message {self.msg_type.name} id={self.unique_id} "
            f"from={self.last_hop} to={self.next_hop} {self.nbytes}B>"
        )


def make_interest(
    attrs: AttributeVector, origin: int, header_bytes: int = 24
) -> Message:
    return Message(
        msg_type=MessageType.INTEREST,
        attrs=attrs,
        origin=origin,
        msg_id=next(_msg_counter),
        header_bytes=header_bytes,
    )


def make_control(
    attrs: AttributeVector, origin: int, header_bytes: int = 24
) -> Message:
    """A control-plane message (hierarchy announcements and the like).

    Control messages never match data subscriptions (their implicit
    class is ``CONTROL``) and the gradient core ignores them; they exist
    for protocol layers that install their own filters, and they are
    accounted separately in the per-class traffic counters.
    """
    return Message(
        msg_type=MessageType.CONTROL,
        attrs=attrs,
        origin=origin,
        msg_id=next(_msg_counter),
        header_bytes=header_bytes,
    )


def make_data(
    attrs: AttributeVector,
    origin: int,
    exploratory: bool,
    header_bytes: int = 24,
    padding_bytes: int = 0,
    push_attrs: Optional[AttributeVector] = None,
) -> Message:
    msg_type = MessageType.EXPLORATORY_DATA if exploratory else MessageType.DATA
    return Message(
        msg_type=msg_type,
        attrs=attrs,
        origin=origin,
        msg_id=next(_msg_counter),
        data_origin=origin,
        header_bytes=header_bytes,
        padding_bytes=padding_bytes,
        push_attrs=push_attrs,
    )


def make_reinforcement(
    positive: bool,
    interest_attrs: AttributeVector,
    interest_digest: bytes,
    data_origin: int,
    origin: int,
    next_hop: int,
    header_bytes: int = 24,
    parent_trace: Optional[str] = None,
) -> Message:
    msg_type = (
        MessageType.POSITIVE_REINFORCEMENT
        if positive
        else MessageType.NEGATIVE_REINFORCEMENT
    )
    return Message(
        msg_type=msg_type,
        attrs=interest_attrs,
        origin=origin,
        msg_id=next(_msg_counter),
        next_hop=next_hop,
        interest_digest=interest_digest,
        data_origin=data_origin,
        header_bytes=header_bytes,
        parent_trace=parent_trace,
    )
