"""Stable hashing and region geometry for rendezvous propagation.

Rendezvous mode must map an attribute *value* to the same grid region
on every node and in every worker process.  Python's builtin ``hash``
is salted per process for strings, so the fold here goes through a
fixed byte encoding and the splitmix64 finalizer of
:mod:`repro.sim.rng` (which the radio's loss draw mixes with too):
deterministic and cheap.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.sim.rng import splitmix64


def _encode(value: Any) -> bytes:
    """Fixed, process-independent byte encoding of an attribute value.

    The leading type tag keeps ``1`` and ``"1"`` from colliding."""
    if isinstance(value, bool):  # before int: bool is an int subtype
        return b"b\x01" if value else b"b\x00"
    if isinstance(value, int):
        if value.bit_length() > 120:
            return b"I" + str(value).encode("ascii")
        return b"i" + value.to_bytes(16, "little", signed=True)
    if isinstance(value, float):
        return b"f" + struct.pack("<d", value)
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, (bytes, bytearray)):
        return b"y" + bytes(value)
    raise TypeError(f"cannot hash rendezvous value of type {type(value)!r}")


def stable_hash64(value: Any) -> int:
    """Process-independent 64-bit hash of an attribute value.

    Folds the encoded value through splitmix64 eight bytes at a time.
    Unlike ``hash(str)`` this never varies with ``PYTHONHASHSEED``, so
    every shard worker agrees on where a rendezvous key lives.
    """
    h = splitmix64(0)
    data = _encode(value)
    for start in range(0, len(data), 8):
        chunk = data[start:start + 8]
        h = splitmix64(h ^ int.from_bytes(chunk, "little"))
    return splitmix64(h ^ len(data))


class RegionMap:
    """Hash attribute values onto a ``regions x regions`` grid laid over
    the deployment's bounding box.

    All nodes share one map (geometry is global knowledge, like the
    topology itself), so the mapping is consistent network-wide: an
    interest for ``type=vibration`` and the exploratory data answering
    it both steer toward the same region and meet at O(region) nodes
    instead of O(network).
    """

    def __init__(
        self,
        x_min: float,
        y_min: float,
        x_max: float,
        y_max: float,
        regions: int,
    ) -> None:
        if regions < 1:
            raise ValueError("regions must be >= 1")
        self.regions = regions
        self.x_min = x_min
        self.y_min = y_min
        # Degenerate extents (single node, collinear deployments) still
        # need a well-defined cell width.
        self.width = max(x_max - x_min, 1e-9)
        self.height = max(y_max - y_min, 1e-9)
        self._value_memo: Dict[Any, int] = {}

    @classmethod
    def from_topology(cls, topology, regions: int) -> "RegionMap":
        xs: List[float] = []
        ys: List[float] = []
        for node_id in topology.node_ids():
            pos = topology.position(node_id)
            xs.append(pos.x)
            ys.append(pos.y)
        if not xs:
            raise ValueError("cannot build a RegionMap over an empty topology")
        return cls(min(xs), min(ys), max(xs), max(ys), regions)

    def region_of_value(self, value: Any) -> int:
        """The region index an attribute value rendezvouses in."""
        region = self._value_memo.get(value)
        if region is None:
            region = stable_hash64(value) % (
                self.regions * self.regions
            )
            self._value_memo[value] = region
        return region

    def region_of_point(self, x: float, y: float) -> int:
        rx = min(int((x - self.x_min) / self.width * self.regions), self.regions - 1)
        ry = min(int((y - self.y_min) / self.height * self.regions), self.regions - 1)
        return max(ry, 0) * self.regions + max(rx, 0)

    def contains(self, region: int, x: float, y: float) -> bool:
        return self.region_of_point(x, y) == region

    def center(self, region: int) -> Tuple[float, float]:
        rx = region % self.regions
        ry = region // self.regions
        return (
            self.x_min + (rx + 0.5) * self.width / self.regions,
            self.y_min + (ry + 0.5) * self.height / self.regions,
        )


def point_segment_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Distance from point P to segment A-B (the forwarding corridor)."""
    dx = bx - ax
    dy = by - ay
    seg_sq = dx * dx + dy * dy
    if seg_sq <= 0.0:
        return ((px - ax) ** 2 + (py - ay) ** 2) ** 0.5
    t = ((px - ax) * dx + (py - ay) * dy) / seg_sq
    t = min(1.0, max(0.0, t))
    cx = ax + t * dx
    cy = ay + t * dy
    return ((px - cx) ** 2 + (py - cy) ** 2) ** 0.5
