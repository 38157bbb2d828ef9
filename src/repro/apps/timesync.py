"""Reference-broadcast time synchronization over diffusion.

Section 7 asks for tools to "accurately synchronize node clocks"; the
group's own answer was Reference Broadcast Synchronization (Elson &
Estrin): a beacon's *broadcast* arrives at all receivers at essentially
the same instant, so differences between the receivers' local arrival
timestamps are exactly their clock offsets — sender-side delays
(queueing, backoff) cancel out entirely.

Roles:

* :class:`TimeBeacon` — broadcasts numbered reference pulses (plain
  named data, ``TYPE IS time-beacon``); the beacon's own clock never
  matters, which is RBS's trick.
* :class:`SyncParticipant` — timestamps beacon arrivals with its local
  clock and publishes the observations (``TYPE IS time-obs``).
* :class:`SyncCoordinator` — collects observations, picks a reference
  node, and estimates every participant's offset relative to it as the
  mean pairwise difference over shared beacons;
  :meth:`apply_corrections` steps the participants' clocks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from repro.core.api import DiffusionRouting
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.sim.clock import NodeClock

BEACON_TYPE = "time-beacon"
OBSERVATION_TYPE = "time-obs"


class TimeBeacon:
    """Periodically broadcasts reference pulses."""

    def __init__(self, api: DiffusionRouting, interval: float = 10.0) -> None:
        self.api = api
        self.interval = interval
        self.beacons_sent = 0
        self._publication = api.publish(
            AttributeVector.builder().actual(Key.TYPE, BEACON_TYPE).build()
        )
        self._timer = api.node.sim.schedule(0.5, self._tick, name="rbs.beacon")

    def _tick(self) -> None:
        attrs = (
            AttributeVector.builder()
            .actual(Key.SEQUENCE, self.beacons_sent)
            .build()
        )
        # Beacons must reach receivers even with no reinforced paths:
        # they are the reference events themselves.
        self.api.send(self._publication, attrs, force_exploratory=True)
        self.beacons_sent += 1
        self._timer = self.api.node.sim.schedule(
            self.interval, self._tick, name="rbs.beacon"
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()


class SyncParticipant:
    """Timestamps beacon receptions and reports them."""

    def __init__(self, api: DiffusionRouting, clock: NodeClock) -> None:
        self.api = api
        self.clock = clock
        self.observations: Dict[int, float] = {}  # beacon seq -> local rx time
        beacon_sub = (
            AttributeVector.builder().eq(Key.TYPE, BEACON_TYPE).build()
        )
        api.subscribe(beacon_sub, self._on_beacon)
        self._publication = api.publish(
            AttributeVector.builder()
            .actual(Key.TYPE, OBSERVATION_TYPE)
            .actual(Key.INSTANCE, f"node-{api.node_id}")
            .build()
        )

    def _on_beacon(self, attrs: AttributeVector, message) -> None:
        seq = attrs.value_of(Key.SEQUENCE)
        if seq is None:
            return
        seq = int(seq)
        if seq in self.observations:
            return
        local = self.clock.local_time(self.api.node.sim.now)
        self.observations[seq] = local
        report = (
            AttributeVector.builder()
            .actual(Key.SEQUENCE, seq)
            .actual(Key.INTENSITY, local)  # float64 local rx timestamp
            .build()
        )
        self.api.send(self._publication, report, force_exploratory=True)


class SyncCoordinator:
    """Estimates pairwise offsets from shared beacon observations."""

    def __init__(self, api: DiffusionRouting) -> None:
        self.api = api
        # beacon seq -> {node id: local rx time}
        self._by_beacon: Dict[int, Dict[int, float]] = defaultdict(dict)
        self.reports_received = 0
        sub = (
            AttributeVector.builder().eq(Key.TYPE, OBSERVATION_TYPE).build()
        )
        api.subscribe(sub, self._on_report)

    def _on_report(self, attrs: AttributeVector, message) -> None:
        instance = attrs.value_of(Key.INSTANCE)
        seq = attrs.value_of(Key.SEQUENCE)
        local = attrs.value_of(Key.INTENSITY)
        if instance is None or seq is None or local is None:
            return
        if not str(instance).startswith("node-"):
            return
        try:
            node_id = int(str(instance).split("-", 1)[1])
        except ValueError:
            return
        self.reports_received += 1
        self._by_beacon[int(seq)][node_id] = float(local)

    def reset_window(self) -> None:
        """Forget accumulated observations.

        Offset estimates average *all* shared beacons, so a clock that
        steps mid-run (a fault, a correction) would be averaged against
        its own past.  Periodic sync rounds call this after applying
        corrections to keep the estimation window current.
        """
        self._by_beacon.clear()

    def participants(self) -> List[int]:
        nodes = set()
        for observations in self._by_beacon.values():
            nodes.update(observations)
        return sorted(nodes)

    def offset_estimate(self, node: int, reference: int) -> Optional[float]:
        """Mean of (node's rx time - reference's rx time) over shared
        beacons; None without common observations."""
        differences = [
            obs[node] - obs[reference]
            for obs in self._by_beacon.values()
            if node in obs and reference in obs
        ]
        if not differences:
            return None
        return sum(differences) / len(differences)

    def shared_beacons(self, node: int, reference: int) -> int:
        return sum(
            1
            for obs in self._by_beacon.values()
            if node in obs and reference in obs
        )

    def apply_corrections(
        self,
        clocks: Dict[int, NodeClock],
        reference: int,
    ) -> Dict[int, float]:
        """Step every clock to agree with the reference node's.

        Returns the corrections applied.  The reference clock is left
        untouched (RBS synchronizes *relative* time).
        """
        corrections: Dict[int, float] = {}
        for node, clock in clocks.items():
            if node == reference:
                continue
            estimate = self.offset_estimate(node, reference)
            if estimate is None:
                continue
            clock.adjust(-estimate)
            corrections[node] = -estimate
        return corrections
