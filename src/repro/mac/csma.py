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

#: backoff after a busy carrier: ``MIN_BACKOFF`` plus a uniform draw in
#: a window that doubles per consecutive busy sense, capped at
#: ``MAX_BACKOFF`` (seconds).
MIN_BACKOFF = 0.005
MAX_BACKOFF = 0.32
#: the short jittered gap before every attempt (seconds).
INTERFRAME_GAP = 0.002


class CsmaMac(Mac):
    """Non-persistent CSMA with bounded exponential backoff."""

    def __init__(
        self,
        sim: Simulator,
        modem: Modem,
        rng: Optional[random.Random] = None,
        trace: Optional[TraceBus] = None,
    ) -> None:
        super().__init__(sim, modem, trace=trace)
        # A shared random.Random(0) here would give every node the same
        # backoff stream — contending nodes would draw identical delays
        # and re-collide forever.  Derive a per-node stream instead.
        self.rng = rng or make_rng(0, f"csma-mac:{modem.node_id}")
        # Attributes, not only constants: the shard lookahead reads the
        # smallest delay a MAC can schedule off them.
        self.min_backoff = MIN_BACKOFF
        self.max_backoff = MAX_BACKOFF
        self.interframe_gap = INTERFRAME_GAP
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
        modem = self.modem
        if modem.channel.carrier_busy(modem.node_id) or modem.transmitting:
            self.stats.backoffs += 1
            self._backoff_stage = min(self._backoff_stage + 1, 6)
            window = min(self.max_backoff, self.min_backoff * (2 ** self._backoff_stage))
            delay = self.min_backoff + self.rng.random() * window
            self.sim.schedule(delay, self._attempt, name="csma.backoff")
            return
        self._backoff_stage = 0
        self._transmit_head()
