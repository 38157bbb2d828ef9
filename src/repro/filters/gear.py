"""Geographically constrained interest forwarding (GEAR-style).

The paper's Section 4.2 notes: "We are currently exploring using
filters to optimize diffusion (avoiding flooding) with geographic
information [39]" — reference [39] is Yu, Estrin & Govindan's GEAR.
This filter implements the essential optimization as a diffusion
filter, exactly the deployment route the paper proposes:

* interests carrying a rectangular region (``X_COORD``/``Y_COORD``
  GE/LE formals) are only rebroadcast by nodes that make *progress*
  toward the region (their distance to the region is smaller than the
  previous hop's, within a slack);
* nodes inside the region flood normally so every in-region sensor is
  reached;
* interests without geographic constraints are untouched.

Suppressing a rebroadcast here means the gradient filter never sees the
interest, so no gradient is set up at pruned nodes — data will not flow
through them, which is the point: the interest (and later exploratory
data) avoids irrelevant parts of the network.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.core.filter_api import FilterHandle, GRADIENT_FILTER_PRIORITY
from repro.core.messages import Message, MessageType
from repro.core.node import DiffusionNode
from repro.naming import AttributeVector, Operator
from repro.naming.keys import Key
from repro.radio.topology import Topology


def region_of(attrs: AttributeVector) -> Optional[Tuple[float, float, float, float]]:
    """Extract the (xmin, xmax, ymin, ymax) rectangle, if present."""
    xmin = attrs.find(Key.X_COORD, Operator.GE)
    xmax = attrs.find(Key.X_COORD, Operator.LE)
    ymin = attrs.find(Key.Y_COORD, Operator.GE)
    ymax = attrs.find(Key.Y_COORD, Operator.LE)
    if None in (xmin, xmax, ymin, ymax):
        return None
    return (float(xmin.value), float(xmax.value), float(ymin.value), float(ymax.value))


def distance_to_region(
    x: float, y: float, region: Tuple[float, float, float, float]
) -> float:
    """Euclidean distance from a point to a rectangle (0 when inside)."""
    xmin, xmax, ymin, ymax = region
    dx = max(xmin - x, 0.0, x - xmax)
    dy = max(ymin - y, 0.0, y - ymax)
    return math.hypot(dx, dy)


#: above the aggregation filters (+20): a pruned interest is gone
#: before anything else spends time on it.
GEAR_FILTER_PRIORITY = GRADIENT_FILTER_PRIORITY + 40


class GearFilter:
    """Prune interest floods that move away from the target region."""

    def __init__(
        self, node: DiffusionNode, topology: Topology, slack: float = 5.0
    ) -> None:
        self.node = node
        self.topology = topology
        self.slack = slack
        self.pruned = 0
        self.forwarded = 0
        self.handle = node.add_filter(
            AttributeVector(), GEAR_FILTER_PRIORITY, self._callback,
            name="gear",
        )

    def _callback(self, message: Message, handle: FilterHandle) -> None:
        if message.msg_type is not MessageType.INTEREST:
            self.node.send_message(message, handle)
            return
        region = region_of(message.attrs)
        if region is None or message.last_hop is None:
            # No geography, or locally originated: normal processing.
            self.node.send_message(message, handle)
            return
        if not self.topology.has_node(self.node.node_id) or not self.topology.has_node(
            message.last_hop
        ):
            self.node.send_message(message, handle)
            return
        here = self.topology.position(self.node.node_id)
        there = self.topology.position(message.last_hop)
        my_distance = distance_to_region(here.x, here.y, region)
        their_distance = distance_to_region(there.x, there.y, region)
        if my_distance == 0.0 or my_distance < their_distance + self.slack:
            # Inside the region, or making progress: keep flooding.
            self.forwarded += 1
            self.node.send_message(message, handle)
            return
        self.pruned += 1  # drop: moving away from the region

    def remove(self) -> None:
        self.node.remove_filter(self.handle)
