"""Carrier-sense MAC without RTS/CTS or ARQ (the testbed MAC).

Before sending, the node listens; if the carrier is busy it backs off a
random interval and tries again.  There is no ACK and no retransmission,
and carrier sensing happens at the *sender* — so two sources that cannot
hear each other (hidden terminals) happily collide at a common receiver,
which the paper identifies as "endemic to our multihop topology".
"""

from __future__ import annotations

import random
from typing import Optional

from repro.mac.base import Mac
from repro.radio.modem import Modem
from repro.sim import Simulator, TraceBus
from repro.sim.rng import make_rng


class CsmaMac(Mac):
    """Non-persistent CSMA with bounded exponential backoff."""

    def __init__(
        self,
        sim: Simulator,
        modem: Modem,
        rng: Optional[random.Random] = None,
        min_backoff: float = 0.005,
        max_backoff: float = 0.32,
        interframe_gap: float = 0.002,
        queue_limit: int = 64,
        trace: Optional[TraceBus] = None,
    ) -> None:
        super().__init__(sim, modem, queue_limit=queue_limit, trace=trace)
        # A shared random.Random(0) here would give every node the same
        # backoff stream — contending nodes would draw identical delays
        # and re-collide forever.  Derive a per-node stream instead.
        self.rng = rng or make_rng(0, f"csma-mac:{modem.node_id}")
        self.min_backoff = min_backoff
        self.max_backoff = max_backoff
        self.interframe_gap = interframe_gap
        self._backoff_stage = 0

    def _schedule_attempt(self, first: bool) -> None:
        # A short jittered gap decorrelates nodes that queued a broadcast
        # at the same instant (e.g. a flooded interest rebroadcast).
        delay = self.interframe_gap * (1.0 + self.rng.random())
        self.sim.schedule(delay, self._attempt, name="csma.attempt")

    def _attempt(self) -> None:
        if not self._queue:
            self._busy = False
            return
        if self.modem.carrier_busy() or self.modem.transmitting:
            self.stats.backoffs += 1
            self._backoff_stage = min(self._backoff_stage + 1, 6)
            window = min(self.max_backoff, self.min_backoff * (2 ** self._backoff_stage))
            delay = self.min_backoff + self.rng.random() * window
            self.sim.schedule(delay, self._attempt, name="csma.backoff")
            return
        self._backoff_stage = 0
        self._transmit_head()
