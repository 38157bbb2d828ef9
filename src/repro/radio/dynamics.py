"""Network dynamics: mobility.

The paper motivates diffusion's soft state with "changing
communications, moving nodes, and limited battery power" and notes that
periodic exploratory messages "adjust gradients in the case of network
changes (due to node failure, energy depletion, or mobility)".
:class:`RandomWaypointMobility` moves a node between waypoints inside a
rectangle; propagation models read positions per transmission, so link
quality changes continuously as the node moves.  (Scheduled node
failures are :class:`~repro.faults.plan.NodeCrash` actions on a
:class:`~repro.faults.engine.FaultEngine`.)
"""

from __future__ import annotations

import math
import random
from typing import Optional, Tuple

from repro.radio.topology import Topology
from repro.sim import Simulator
from repro.sim.rng import make_rng


class RandomWaypointMobility:
    """Classic random-waypoint movement for one node.

    The node picks a uniform random waypoint in the bounding box, walks
    toward it at ``speed`` m/s (position updated every ``step``
    seconds), optionally pauses, then picks the next waypoint.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        node_id: int,
        bounds: Tuple[float, float, float, float],
        speed: float = 1.0,
        pause: float = 0.0,
        step: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        xmin, xmax, ymin, ymax = bounds
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("bounds must describe a non-empty rectangle")
        if speed <= 0 or step <= 0:
            raise ValueError("speed and step must be positive")
        self.sim = sim
        self.topology = topology
        self.node_id = node_id
        self.bounds = bounds
        self.speed = speed
        self.pause = pause
        self.step = step
        # Seed-derived stream: mobility draws must stay independent of
        # node-local streams (MAC backoff, diffusion jitter) that once
        # shared random.Random(node_id) under identical seeds.
        self.rng = rng or make_rng(node_id, "mobility")
        self.waypoints_visited = 0
        self.distance_travelled = 0.0
        self._target: Optional[Tuple[float, float]] = None
        self._timer = sim.schedule(0.0, self._tick, name="mobility.tick")
        self._running = True

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()

    def _pick_waypoint(self) -> Tuple[float, float]:
        xmin, xmax, ymin, ymax = self.bounds
        return (self.rng.uniform(xmin, xmax), self.rng.uniform(ymin, ymax))

    def _tick(self) -> None:
        if not self._running:
            return
        position = self.topology.position(self.node_id)
        if self._target is None:
            self._target = self._pick_waypoint()
        tx, ty = self._target
        dx, dy = tx - position.x, ty - position.y
        distance = math.hypot(dx, dy)
        reach = self.speed * self.step
        if distance <= reach:
            self.topology.move_node(self.node_id, tx, ty)
            self.distance_travelled += distance
            self.waypoints_visited += 1
            self._target = None
            delay = self.step + self.pause
        else:
            scale = reach / distance
            self.topology.move_node(
                self.node_id, position.x + dx * scale, position.y + dy * scale
            )
            self.distance_travelled += reach
            delay = self.step
        self._timer = self.sim.schedule(delay, self._tick, name="mobility.tick")
