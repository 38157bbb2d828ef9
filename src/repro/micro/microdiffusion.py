"""The micro-diffusion protocol engine.

Statically sized like the mote implementation: the gradient table holds
:data:`MAX_GRADIENTS` entries (5) and the duplicate cache
:data:`CACHE_PACKETS` entries of 2 relevant bytes each (10).  The
logical header stays compatible with full diffusion (tag, kind, origin,
sequence), which is what lets the gateway translate between tiers.

Naming is "condensed to a single tag"; matching degenerates to tag
equality — the motivating special case of the attribute machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.sim import Simulator


class MicroMessageKind(enum.IntEnum):
    INTEREST = 1
    DATA = 2


@dataclass
class MicroMessage:
    """A mote-sized message: 2-byte tag, tiny payload."""

    kind: MicroMessageKind
    tag: int
    origin: int
    seq: int
    payload: bytes = b""
    last_hop: Optional[int] = None

    HEADER_BYTES = 8  # kind(1) + tag(2) + origin(2) + seq(2) + len(1)

    def __post_init__(self) -> None:
        if not 0 <= self.tag < 2**16:
            raise ValueError("tag must be uint16")

    @property
    def nbytes(self) -> int:
        return self.HEADER_BYTES + len(self.payload)

    def cache_key(self) -> int:
        """The '2 relevant bytes per packet' the mote cache stores."""
        return ((self.origin & 0xFF) << 8) | (self.seq & 0xFF)


#: the paper's mote build: "statically configured to support 5 active
#: gradients and a cache of 10 packets", interests refreshed every 60 s.
MAX_GRADIENTS = 5
CACHE_PACKETS = 10
INTEREST_INTERVAL = 60.0
#: seconds a mote's gradient outlives the interest that set it: two and
#: a half interest intervals, so one lost refresh does not cut the path.
GRADIENT_TTL = 150.0


@dataclass
class _MicroGradient:
    tag: int
    neighbor: int
    expires_at: float


class MicroDiffusionNode:
    """One mote's micro-diffusion engine.

    Uses the same transport interface as the full stack (a
    FragmentationLayer or IdealTransport), so motes and PC/104 nodes can
    share a radio channel in simulation.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        transport,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.transport = transport
        # Fixed-size tables, mote-style.
        self.gradients: List[_MicroGradient] = []
        self.cache: List[int] = []  # FIFO of 2-byte keys
        self.subscriptions: Dict[int, Callable[[MicroMessage], None]] = {}
        # "supporting only limited filters": one per-tag hook that can
        # drop (return None) or rewrite a data message before routing.
        self.filters: Dict[int, Callable[[MicroMessage], Optional[MicroMessage]]] = {}
        self._interest_timers: Dict[int, object] = {}
        self._seq = 0
        self.stats_tx_messages = 0
        self.stats_tx_bytes = 0
        self.stats_gradient_evictions = 0
        self.stats_cache_hits = 0
        if transport is not None:
            transport.deliver_callback = self._on_message

    # -- application API ------------------------------------------------------

    def subscribe(self, tag: int, callback: Callable[[MicroMessage], None]) -> None:
        """Express interest in a tag; floods periodically."""
        self.subscriptions[tag] = callback
        self._originate_interest(tag)

    def unsubscribe(self, tag: int) -> None:
        self.subscriptions.pop(tag, None)
        timer = self._interest_timers.pop(tag, None)
        if timer is not None:
            timer.cancel()

    def add_filter(
        self,
        tag: int,
        callback: Callable[[MicroMessage], Optional[MicroMessage]],
    ) -> None:
        """Install the (single) filter for a tag.

        The callback sees every data message for the tag before routing;
        returning None drops it, returning a (possibly rewritten)
        message lets it continue.  One filter per tag — mote builds have
        no room for a priority pipeline.
        """
        if tag in self.filters:
            raise ValueError(f"tag {tag} already has a filter")
        self.filters[tag] = callback

    def remove_filter(self, tag: int) -> bool:
        return self.filters.pop(tag, None) is not None

    def send(self, tag: int, payload: bytes = b"") -> MicroMessage:
        """Publish one data sample under a tag."""
        self._seq = (self._seq + 1) & 0xFFFF
        message = MicroMessage(
            kind=MicroMessageKind.DATA,
            tag=tag,
            origin=self.node_id,
            seq=self._seq,
            payload=payload,
        )
        self._note_seen(message)
        self._route_data(message)
        return message

    # -- gradients -------------------------------------------------------------

    def _gradient_for(self, tag: int, neighbor: int) -> Optional[_MicroGradient]:
        for gradient in self.gradients:
            if gradient.tag == tag and gradient.neighbor == neighbor:
                return gradient
        return None

    def _update_gradient(self, tag: int, neighbor: int) -> None:
        now = self.sim.now
        gradient = self._gradient_for(tag, neighbor)
        if gradient is not None:
            gradient.expires_at = now + GRADIENT_TTL
            return
        # Reap expired entries first; then evict the soonest-to-expire
        # if the static table is still full.
        self.gradients = [g for g in self.gradients if g.expires_at > now]
        if len(self.gradients) >= MAX_GRADIENTS:
            victim = min(self.gradients, key=lambda g: g.expires_at)
            self.gradients.remove(victim)
            self.stats_gradient_evictions += 1
        self.gradients.append(
            _MicroGradient(tag=tag, neighbor=neighbor,
                           expires_at=now + GRADIENT_TTL)
        )

    def active_gradients(self, tag: int) -> List[int]:
        now = self.sim.now
        return sorted(
            g.neighbor
            for g in self.gradients
            if g.tag == tag and g.expires_at > now
        )

    # -- cache -------------------------------------------------------------------

    def _note_seen(self, message: MicroMessage) -> bool:
        """True when the packet was already in the tiny cache."""
        key = message.cache_key()
        if key in self.cache:
            self.stats_cache_hits += 1
            return True
        self.cache.append(key)
        if len(self.cache) > CACHE_PACKETS:
            self.cache.pop(0)
        return False

    # -- protocol -------------------------------------------------------------------

    def _originate_interest(self, tag: int) -> None:
        if tag not in self.subscriptions:
            return
        self._seq = (self._seq + 1) & 0xFFFF
        message = MicroMessage(
            kind=MicroMessageKind.INTEREST,
            tag=tag,
            origin=self.node_id,
            seq=self._seq,
        )
        self._note_seen(message)
        self._transmit(message, link_dst=None)
        self._interest_timers[tag] = self.sim.schedule(
            INTEREST_INTERVAL,
            self._originate_interest,
            tag,
            name="micro.interest",
        )

    def _on_message(self, message, src: int, nbytes: int) -> None:
        if not isinstance(message, MicroMessage):
            return
        incoming = replace(message, last_hop=src)
        if self._note_seen(incoming):
            return
        if incoming.kind is MicroMessageKind.INTEREST:
            self._update_gradient(incoming.tag, src)
            self._transmit(incoming, link_dst=None)  # continue the flood
            return
        filter_cb = self.filters.get(incoming.tag)
        if filter_cb is not None:
            filtered = filter_cb(incoming)
            if filtered is None:
                return  # filter absorbed the message
            incoming = filtered
        callback = self.subscriptions.get(incoming.tag)
        if callback is not None:
            callback(incoming)
        self._route_data(incoming)

    def _route_data(self, message: MicroMessage) -> None:
        neighbors = [
            n for n in self.active_gradients(message.tag) if n != message.last_hop
        ]
        if not neighbors:
            return
        if len(neighbors) == 1:
            self._transmit(message, link_dst=neighbors[0])
        else:
            self._transmit(message, link_dst=None)

    def _transmit(self, message: MicroMessage, link_dst: Optional[int]) -> None:
        self.stats_tx_messages += 1
        self.stats_tx_bytes += message.nbytes
        if self.transport is not None:
            self.transport.send_message(message, message.nbytes, link_dst)
