"""Duty-cycled CSMA: the power-aware MAC the paper calls for.

Section 6.1: "energy-conscious protocols like PAMAS or TDMA are
necessary for long-lived sensor networks.  We are currently
experimenting with power-aware MAC approaches."  This MAC implements
the simplest such design (the scheme S-MAC later formalized): all nodes
share a synchronized frame of ``PERIOD`` seconds and keep their radios
on only for the first ``duty_cycle`` fraction of it.  Transmissions are
deferred to awake windows; a sleeping radio hears nothing, so a
transmission must also *fit* inside the window.

The energy win is exactly the paper's Pd analysis: the listen term
scales by the duty cycle while send/receive stay proportional to
traffic.  :func:`~repro.energy.radio_energy` prices a stack's radio
time at its MAC's ``duty_cycle``, so the arithmetic agrees with the
radio's actual sleep schedule.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.mac.csma import CsmaMac
from repro.radio.modem import AIRTIME_BY_SIZE, Modem
from repro.sim import Simulator


class DutyCycledCsmaMac(CsmaMac):
    """CSMA confined to synchronized awake windows."""

    #: seconds per frame, shared by every node (no run varies it).
    PERIOD = 1.0

    def __init__(
        self,
        sim: Simulator,
        modem: Modem,
        duty_cycle: float = 0.1,
        rng: Optional[random.Random] = None,
        **csma_kwargs,
    ) -> None:
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be within (0, 1]")
        super().__init__(sim, modem, rng=rng, **csma_kwargs)
        self.duty_cycle = duty_cycle
        self.deferred_to_window = 0
        if duty_cycle < 1.0:
            self._apply_schedule()

    # -- schedule --------------------------------------------------------------

    @property
    def awake_span(self) -> float:
        return self.duty_cycle * self.PERIOD

    def is_awake(self, now: float) -> bool:
        return (now % self.PERIOD) < self.awake_span

    def next_wakeup(self, now: float) -> float:
        """Absolute time of the next awake-window start (>= now)."""
        frame_start = (now // self.PERIOD) * self.PERIOD
        if now < frame_start + self.awake_span:
            return now  # already awake
        return frame_start + self.PERIOD

    def window_time_left(self, now: float) -> float:
        if not self.is_awake(now):
            return 0.0
        return self.awake_span - (now % self.PERIOD)

    def _apply_schedule(self) -> None:
        now = self.sim.now
        if self.is_awake(now):
            self.modem.sleeping = False
            frame_start = (now // self.PERIOD) * self.PERIOD
            next_change = frame_start + self.awake_span
        else:
            # Never park the radio mid-transmission; the schedule check
            # reruns right after the fragment completes.
            if self.modem.transmitting:
                self.sim.schedule(0.001, self._apply_schedule, name="dmac.retry")
                return
            self.modem.sleeping = True
            next_change = self.next_wakeup(now + 1e-9)
        self.sim.schedule_at(
            max(next_change, now + 1e-9), self._apply_schedule, name="dmac.schedule"
        )

    # -- transmission gating ------------------------------------------------------

    def _attempt(self) -> None:
        if not self._queue:
            self._busy = False
            return
        now = self.sim.now
        _, nbytes, _ = self._queue[0]
        airtime = AIRTIME_BY_SIZE[nbytes]
        if self.duty_cycle < 1.0 and (
            not self.is_awake(now) or self.window_time_left(now) < airtime
        ):
            self.deferred_to_window += 1
            wake = self.next_wakeup(now + 1e-9)
            jitter = self.rng.random() * self.min_backoff
            self.sim.schedule_at(
                max(wake, now) + jitter, self._attempt, name="dmac.defer"
            )
            return
        super()._attempt()
