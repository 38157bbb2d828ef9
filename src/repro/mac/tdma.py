"""Slotted TDMA MAC: the energy-conserving design point.

Section 6.1 argues that long-lived sensor networks need MACs that sleep
("TDMA radios such as in WINSng nodes may have duty cycles of 10-15%").
Each node owns one slot per frame and transmits only there; collisions
between slot owners are impossible, and the radio can sleep outside its
listen obligations, which the energy model captures as a duty cycle.
"""

from __future__ import annotations

from typing import Optional

from repro.mac.base import Mac
from repro.radio.modem import Modem
from repro.sim import Simulator, TraceBus


class TdmaMac(Mac):
    """Fixed-assignment TDMA: node ``slot_index`` of ``slot_count``."""

    def __init__(
        self,
        sim: Simulator,
        modem: Modem,
        slot_index: int,
        slot_count: int,
        slot_duration: float = 0.05,
        guard_time: float = 0.002,
        queue_limit: int = 64,
        trace: Optional[TraceBus] = None,
    ) -> None:
        if not 0 <= slot_index < slot_count:
            raise ValueError("slot_index must be within [0, slot_count)")
        super().__init__(sim, modem, queue_limit=queue_limit, trace=trace)
        self.slot_index = slot_index
        self.slot_count = slot_count
        self.slot_duration = slot_duration
        self.guard_time = guard_time

    @property
    def frame_duration(self) -> float:
        return self.slot_count * self.slot_duration

    def next_slot_start(self, now: float) -> float:
        """Absolute time our next slot opens (>= now)."""
        frame_start = (now // self.frame_duration) * self.frame_duration
        slot_start = frame_start + self.slot_index * self.slot_duration
        while slot_start < now:
            slot_start += self.frame_duration
        return slot_start

    def duty_cycle(self) -> float:
        """Fraction of time the radio must listen: everyone else's slots.

        A non-base-station in a TDMA net listens only during slots that
        can carry traffic for it; with no further schedule information
        that is every slot but its own.
        """
        return (self.slot_count - 1) / self.slot_count

    def _schedule_attempt(self, first: bool) -> None:
        now = self.sim.now
        opens = self.next_slot_start(now) + self.guard_time
        self.sim.schedule(max(0.0, opens - now), self._attempt, name="tdma.slot")

    def _attempt(self) -> None:
        if not self._queue:
            self._busy = False
            return
        # Check the fragment fits in the remainder of our slot.
        _, nbytes, _ = self._queue[0]
        airtime = self.modem.params.fragment_airtime(nbytes)
        if not self._in_own_slot(self.sim.now) or self._slot_time_left(self.sim.now) < airtime:
            self._schedule_attempt(first=False)
            return
        self._transmit_head()

    def _in_own_slot(self, now: float) -> bool:
        position = now % self.frame_duration
        start = self.slot_index * self.slot_duration
        return start <= position < start + self.slot_duration

    def _slot_time_left(self, now: float) -> float:
        position = now % self.frame_duration
        end = self.slot_index * self.slot_duration + self.slot_duration
        return max(0.0, end - position)
