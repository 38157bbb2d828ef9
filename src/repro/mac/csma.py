"""Carrier-sense MAC without RTS/CTS or ARQ (the testbed MAC), with an
optional sleep schedule.

Before sending, the node listens; if the carrier is busy it backs off a
random interval and tries again.  There is no ACK and no retransmission,
and carrier sensing happens at the *sender* — so two sources that cannot
hear each other (hidden terminals) happily collide at a common receiver,
which the paper identifies as "endemic to our multihop topology".

Section 6.1 adds: "energy-conscious protocols like PAMAS or TDMA are
necessary for long-lived sensor networks.  We are currently
experimenting with power-aware MAC approaches."  A ``duty_cycle`` below
1 (:meth:`CsmaMac.set_duty_cycle`) gives the simplest such design (the
scheme S-MAC later formalized): all nodes share a synchronized frame of
``PERIOD`` seconds and keep their radios on only for the first
``duty_cycle`` fraction of it.  Transmissions are deferred to awake windows; a sleeping radio hears
nothing, so a transmission must also *fit* inside the window.  The MAC
is the only writer of ``modem.sleeping``: anything else that wants the
radio asleep (an energy brownout) sets the duty cycle.

The energy win is exactly the paper's Pd analysis: the listen term
scales by the duty cycle while send/receive stay proportional to
traffic.  :func:`~repro.energy.radio_energy` prices a stack's radio
time at its MAC's ``duty_cycle``, so the arithmetic agrees with the
radio's actual sleep schedule.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.mac.base import Mac
from repro.radio.modem import AIRTIME_BY_SIZE, Modem
from repro.sim import Event, Simulator, TraceBus
from repro.sim.rng import make_rng

#: backoff after a busy carrier: ``MIN_BACKOFF`` plus a uniform draw in
#: a window that doubles per consecutive busy sense, capped at
#: ``MAX_BACKOFF`` (seconds).
MIN_BACKOFF = 0.005
MAX_BACKOFF = 0.32
#: the short jittered gap before every attempt (seconds).
INTERFRAME_GAP = 0.002


class CsmaMac(Mac):
    """Non-persistent CSMA with bounded exponential backoff, confined to
    synchronized awake windows once :meth:`set_duty_cycle` puts
    ``duty_cycle`` below 1."""

    #: seconds per sleep frame, shared by every node (no run varies it).
    PERIOD = 1.0

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
        #: the fraction of each frame the radio listens (set it with
        #: set_duty_cycle); the energy model prices idle listening by it.
        self.duty_cycle = 1.0
        self.deferred_to_window = 0
        # the pending dmac.schedule / dmac.retry event, below 1.0
        self._frame_event: Optional[Event] = None

    # -- sleep schedule ---------------------------------------------------------

    def set_duty_cycle(self, duty_cycle: float) -> None:
        """Listen for the first ``duty_cycle`` of every frame from now
        on; 1.0 stops the schedule and leaves the radio awake."""
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be within (0, 1]")
        if duty_cycle == self.duty_cycle:
            return
        self.duty_cycle = duty_cycle
        if self._frame_event is not None:
            self._frame_event.cancel()
            self._frame_event = None
        if duty_cycle < 1.0:
            self._apply_schedule()
        else:
            self.modem.sleeping = False

    @property
    def awake_span(self) -> float:
        return self.duty_cycle * self.PERIOD

    def _slice_end(self, now: float) -> float:
        """The end of the awake slice of ``now``'s frame, derived from
        the frame index (``k * PERIOD + awake_span``) exactly as the
        schedule event that lands on it was, so the event reads its own
        edge as the edge: ``now % PERIOD`` can fall just short of it
        (``8.2 % 1.0`` is 0.19999999999999929)."""
        return (now // self.PERIOD) * self.PERIOD + self.awake_span

    def is_awake(self, now: float) -> bool:
        return now < self._slice_end(now)

    def next_wakeup(self, now: float) -> float:
        """Absolute time of the next awake-window start (>= now)."""
        if self.is_awake(now):
            return now  # already awake
        return (now // self.PERIOD) * self.PERIOD + self.PERIOD

    def window_time_left(self, now: float) -> float:
        return max(0.0, self._slice_end(now) - now)

    def _apply_schedule(self) -> None:
        now = self.sim.now
        if self.is_awake(now):
            self.modem.sleeping = False
            next_change = self._slice_end(now)
        else:
            # Never park the radio mid-transmission; the schedule check
            # reruns right after the fragment completes.
            if self.modem.transmitting:
                self._frame_event = self.sim.schedule(
                    0.001, self._apply_schedule, name="dmac.retry"
                )
                return
            self.modem.sleeping = True
            next_change = self.next_wakeup(now + 1e-9)
        self._frame_event = self.sim.schedule_at(
            max(next_change, now + 1e-9), self._apply_schedule, name="dmac.schedule"
        )

    # -- transmission -------------------------------------------------------------

    def _schedule_attempt(self, first: bool) -> None:
        # A short jittered gap decorrelates nodes that queued a broadcast
        # at the same instant (e.g. a flooded interest rebroadcast).
        delay = self.interframe_gap * (1.0 + self.rng.random())
        self.sim.schedule(delay, self._attempt, name="csma.attempt")

    def _attempt(self) -> None:
        queue = self._queue
        if not queue:
            self._busy = False
            return
        if self.duty_cycle < 1.0:
            now = self.sim.now
            if self.window_time_left(now) < AIRTIME_BY_SIZE[queue[0][1]]:
                self.deferred_to_window += 1
                wake = self.next_wakeup(now + 1e-9)
                jitter = self.rng.random() * self.min_backoff
                self.sim.schedule_at(
                    max(wake, now) + jitter, self._attempt, name="dmac.defer"
                )
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
