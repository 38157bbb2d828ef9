"""Per-node clocks with an offset and a drift.

The simulator's ``now`` is true time; real sensor nodes do not have it.
Paper footnote 2: timestamps "require synchronization ... We use
sequence numbers because at the time of this experiment we had not
synchronized our clocks", and Section 7 lists "accurately synchronize
node clocks" among the missing tools.  :class:`NodeClock` provides the
problem (skewed local time) and :mod:`repro.apps.timesync` the
solution.
"""

from __future__ import annotations


class NodeClock:
    """A local clock: ``local = true * (1 + drift) + offset``.

    A clock starts exact.  :meth:`adjust` steps ``offset`` (a sync
    correction, or a :class:`~repro.faults.plan.ClockSkew` fault), and a
    ``ClockSkew`` fault adds to ``drift_ppm``, the parts-per-million
    frequency error of the crystal.
    """

    def __init__(self) -> None:
        self.offset = 0.0
        self.drift_ppm = 0.0
        self.adjustments = 0

    @property
    def _rate(self) -> float:
        return 1.0 + self.drift_ppm * 1e-6

    def local_time(self, true_time: float) -> float:
        """Read the clock at true time."""
        return true_time * self._rate + self.offset

    def true_time(self, local_time: float) -> float:
        """Invert a local reading."""
        return (local_time - self.offset) / self._rate

    def adjust(self, delta: float) -> None:
        """Step the clock by ``delta`` seconds (sync correction)."""
        self.offset += delta
        self.adjustments += 1

    def error_vs(self, other: "NodeClock", true_time: float) -> float:
        """Instantaneous disagreement with another clock, in seconds."""
        return abs(self.local_time(true_time) - other.local_time(true_time))
