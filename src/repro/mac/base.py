"""Common MAC machinery: the transmit queue and statistics."""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.radio.modem import BROADCAST_ADDRESS, Modem, RadioParams, _size_refused
from repro.sim import Simulator, TraceBus, trace_id_of
from repro.sim.metrics import current_registry

#: fragments a MAC holds before it drops new ones (``queue-full``).
QUEUE_LIMIT = 64
#: the largest fragment payload the radio carries, in bytes.
_MAX_FRAGMENT = RadioParams.fragment_payload


@dataclass
class MacStats:
    """Counters exposed for experiments and debugging."""

    enqueued: int = 0
    transmitted: int = 0
    dropped_queue_full: int = 0
    backoffs: int = 0


class Mac:
    """Base class: a FIFO of fragments feeding the modem.

    Subclasses decide *when* the head of the queue may be transmitted by
    implementing :meth:`_schedule_attempt`.
    """

    def __init__(
        self,
        sim: Simulator,
        modem: Modem,
        trace: Optional[TraceBus] = None,
    ) -> None:
        self.sim = sim
        self.modem = modem
        # An attribute, not only the constant: a test shrinks one
        # MAC's queue to force overflow.
        self.queue_limit = QUEUE_LIMIT
        self.stats = stats = MacStats()
        self.trace = trace or TraceBus()
        registry = current_registry()
        registry.counter("mac.enqueued", lambda: stats.enqueued)
        registry.counter("mac.transmitted", lambda: stats.transmitted)
        registry.counter("mac.backoffs", lambda: stats.backoffs)
        registry.counter(
            "mac.drops", lambda: stats.dropped_queue_full, reason="queue-full"
        )
        self._m_queue_depth = registry.histogram("mac.queue_depth")
        self._queue: Deque[Tuple[Any, int, Optional[int]]] = deque()
        self._busy = False

    @property
    def node_id(self) -> int:
        return self.modem.node_id

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def enqueue(
        self,
        payload: Any,
        nbytes: int,
        link_dst: Optional[int] = BROADCAST_ADDRESS,
    ) -> bool:
        """Queue one fragment; returns False when the queue overflowed.

        A size the radio cannot send is refused here, with the modem's
        ``ValueError``, rather than when the fragment reaches the air.
        """
        if not 0 <= nbytes <= _MAX_FRAGMENT:
            raise _size_refused(nbytes)
        if len(self._queue) >= self.queue_limit:
            self.stats.dropped_queue_full += 1
            if self.trace.active:
                trace_id = trace_id_of(payload)
                if trace_id is not None:
                    self.trace.emit(
                        self.sim.now,
                        "path.drop",
                        node=self.node_id,
                        trace=trace_id,
                        reason="queue-full",
                        layer="mac",
                    )
            return False
        self._queue.append((payload, nbytes, link_dst))
        self.stats.enqueued += 1
        self._m_queue_depth.observe(len(self._queue))
        if not self._busy:
            self._busy = True
            self._schedule_attempt(first=True)
        return True

    # -- subclass protocol ----------------------------------------------------

    def _schedule_attempt(self, first: bool) -> None:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------

    def _transmit_head(self) -> None:
        payload, nbytes, link_dst = self._queue.popleft()
        self.stats.transmitted += 1
        self.modem.transmit_fragment(
            payload, nbytes, link_dst, on_done=self._after_transmit
        )

    def _after_transmit(self) -> None:
        if self._queue:
            self._schedule_attempt(first=False)
        else:
            self._busy = False
