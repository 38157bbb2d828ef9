"""Message fragmentation and reassembly over 27-byte radio fragments.

Semantics match the testbed: a message of N bytes becomes
``ceil(N / fragment_payload)`` fragments, each carrying a small
(message-id, index, count) tag; the receiver delivers the message only
when *every* fragment of it has arrived.  There is no ARQ, so one lost
fragment loses the whole message — the effect that makes the paper's
MAC "perform particularly poorly at high load".

Fragments carry the message object by reference (this is a simulator,
not a codec); ``nbytes`` drives airtime and traffic accounting.

A partial message expires :data:`REASSEMBLY_TIMEOUT` seconds after its
first fragment arrived.  The timeout is one constant, so expiries come due
in the order the partials were opened: every layer of a network shares
one :class:`ReassemblyExpiry` FIFO with at most one pending kernel
event, instead of scheduling (and mostly cancelling) a timer per
message.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim import Event, Simulator, TraceBus, trace_id_of
from repro.sim.metrics import current_registry

MessageId = Tuple[int, int]  # (origin node, per-node counter)

#: seconds a partial message waits for its missing fragments.
REASSEMBLY_TIMEOUT = 5.0


@dataclass(frozen=True)
class Fragment:
    """One radio-sized piece of a message."""

    message_id: MessageId
    index: int
    count: int
    nbytes: int                  # payload bytes carried by this fragment
    message: Any                 # the full message object (by reference)
    link_src: int = -1           # filled in by the receiver path


class ReassemblyExpiry:
    """The reassembly timeouts of every layer sharing it, in one FIFO.

    Entries are ``(expires, ticket, slot, message_id)`` in the order
    partials were opened, which is expiry order because the timeout is
    fixed; ``slot`` is the opening layer's index in ``layers``, where
    each layer registers when it is built.  At most one ``frag.expire``
    kernel event is pending, at the head's time; it expires every entry
    then due and re-arms for the next live one.  Completing a message or
    resetting a layer deletes only the layer's partial state: an entry
    whose partial is gone, or was opened again since (it holds a newer
    ``ticket``), is skipped.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.layers: List["FragmentationLayer"] = []
        self._fifo: Deque[Tuple[float, int, int, MessageId]] = deque()
        self._tickets = itertools.count()
        self._event: Optional[Event] = None

    def register(self, layer: "FragmentationLayer") -> int:
        """Add a layer; returns the slot its entries carry."""
        self.layers.append(layer)
        return len(self.layers) - 1

    def open(self, slot: int, message_id: MessageId) -> int:
        """Queue the expiry of a partial the layer in ``slot`` opens
        now; returns the ticket that names this opening."""
        expires = self.sim.now + REASSEMBLY_TIMEOUT
        ticket = next(self._tickets)
        self._fifo.append((expires, ticket, slot, message_id))
        if self._event is None:
            self._event = self.sim.schedule_at(
                expires, self._fire, name="frag.expire"
            )
        return ticket

    def _fire(self) -> None:
        fifo = self._fifo
        layers = self.layers
        now = self.sim.now
        while fifo:
            expires, ticket, slot, message_id = fifo[0]
            if expires <= now:
                fifo.popleft()
                layers[slot]._expire(message_id, ticket)
            elif layers[slot]._is_open(message_id, ticket):
                break
            else:
                # Completed or reset since: re-arm for a live head only.
                fifo.popleft()
        self._event = (
            self.sim.schedule_at(fifo[0][0], self._fire, name="frag.expire")
            if fifo else None
        )


class FragmentationLayer:
    """Per-node fragmentation/reassembly engine.

    Send path: :meth:`send_message` splits a message into fragments and
    enqueues each on the MAC.  Receive path: modem fragments funnel into
    :meth:`on_fragment`; complete messages fire ``deliver_callback``.

    Partial messages time out through ``expiry``, the network's shared
    :class:`ReassemblyExpiry`; a layer built without one makes its own.
    """

    def __init__(
        self,
        sim: Simulator,
        mac,
        node_id: int,
        fragment_payload: int = 27,
        trace: Optional[TraceBus] = None,
        expiry: Optional[ReassemblyExpiry] = None,
    ) -> None:
        self.sim = sim
        self.mac = mac
        self.node_id = node_id
        self.fragment_payload = fragment_payload
        self.expiry = expiry if expiry is not None else ReassemblyExpiry(sim)
        self._slot = self.expiry.register(self)
        self.trace = trace or TraceBus()
        self.deliver_callback: Optional[Callable[[Any, int, int], None]] = None
        #: fault-injection hook: called with (fragment, src) for every
        #: inbound fragment; returning False drops it (corruption /
        #: truncation at the link layer — the fragment never reaches
        #: reassembly, so one hit loses its whole message, like a CRC
        #: failure would on the real radio).
        self.inbound_filter: Optional[Callable[[Fragment, int], bool]] = None
        self._message_counter = 0
        # message_id -> [received_mask, full_mask, nbytes, message, src,
        # expiry ticket]; bit i of a mask is fragment i
        self._partial: Dict[MessageId, list] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_incomplete = 0
        registry = current_registry()
        registry.counter("frag.messages_sent", lambda: self.messages_sent)
        registry.counter(
            "frag.messages_delivered", lambda: self.messages_delivered
        )
        registry.counter(
            "frag.drops", lambda: self.messages_incomplete,
            reason="reassembly-failure",
        )
        self.mac.modem.receive_callback = self._on_modem_fragment

    def fragments_for(self, nbytes: int) -> int:
        """How many fragments a message of ``nbytes`` needs."""
        if nbytes <= 0:
            raise ValueError("message size must be positive")
        return max(1, math.ceil(nbytes / self.fragment_payload))

    def send_message(
        self,
        message: Any,
        nbytes: int,
        link_dst: Optional[int] = None,
    ) -> int:
        """Fragment and enqueue a message; returns the fragment count."""
        self._message_counter += 1
        message_id = (self.node_id, self._message_counter)
        count = self.fragments_for(nbytes)
        remaining = nbytes
        for index in range(count):
            size = min(self.fragment_payload, remaining)
            remaining -= size
            fragment = Fragment(
                message_id=message_id,
                index=index,
                count=count,
                nbytes=size,
                message=message,
            )
            self.mac.enqueue(fragment, size, link_dst)
        self.messages_sent += 1
        return count

    # -- receive ------------------------------------------------------------

    def _on_modem_fragment(
        self, payload: Any, src: int, nbytes: int, link_dst: Optional[int]
    ) -> None:
        if not isinstance(payload, Fragment):
            return
        self.on_fragment(payload, src)

    def on_fragment(self, fragment: Fragment, src: int) -> None:
        if self.inbound_filter is not None and not self.inbound_filter(fragment, src):
            return
        if fragment.count == 1:
            self._deliver(fragment.message, src, fragment.nbytes)
            return
        message_id = fragment.message_id
        state = self._partial.get(message_id)
        if state is None:
            state = self._partial[message_id] = [
                0, (1 << fragment.count) - 1, 0, fragment.message, src,
                self.expiry.open(self._slot, message_id),
            ]
        bit = 1 << fragment.index
        if state[0] & bit:  # a duplicate
            return
        state[0] |= bit
        state[2] += fragment.nbytes
        if state[0] == state[1]:  # every fragment has arrived
            del self._partial[message_id]
            self._deliver(state[3], state[4], state[2])

    def _deliver(self, message: Any, src: int, nbytes: int) -> None:
        self.messages_delivered += 1
        if self.deliver_callback is not None:
            self.deliver_callback(message, src, nbytes)

    def _is_open(self, message_id: MessageId, ticket: int) -> bool:
        """Is the partial opened under ``ticket`` still here (neither
        completed nor reset)?"""
        state = self._partial.get(message_id)
        return state is not None and state[5] == ticket

    def _expire(self, message_id: MessageId, ticket: int) -> None:
        """``expiry`` callback: the partial opened under ``ticket`` times
        out, unless it completed or was reset."""
        if self._is_open(message_id, ticket):
            state = self._partial.pop(message_id)
            self.messages_incomplete += 1
            if self.trace.active:
                trace_id = trace_id_of(state[3])
                if trace_id is not None:
                    self.trace.emit(
                        self.sim.now,
                        "path.drop",
                        node=self.node_id,
                        trace=trace_id,
                        reason="reassembly-failure",
                        layer="link",
                        src=state[4],
                    )

    def reset(self) -> None:
        """Drop all partial reassembly state (a reboot loses it)."""
        self._partial.clear()

    @property
    def partial_count(self) -> int:
        return len(self._partial)
