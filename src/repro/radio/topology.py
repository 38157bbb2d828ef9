"""Node placement: positions in metres, optionally on multiple floors.

The ISI testbed (paper Figure 7) spans two floors; inter-floor links
exist but are weaker, which :class:`repro.radio.propagation` models as
extra effective distance per floor crossed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Position:
    """Node position: planar coordinates in metres plus a floor index."""

    x: float
    y: float
    floor: int = 0

    def planar_distance(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Topology:
    """Maps node ids to positions and answers distance queries."""

    #: moves remembered for :meth:`moved_since`.  A cache that falls
    #: further behind than this is told "unknown" and starts over, so a
    #: long random-waypoint run costs a fixed few KiB, not one entry per
    #: step for the whole horizon.
    JOURNAL_LIMIT = 1024

    def __init__(self, floor_penalty: float = 12.0) -> None:
        # floor_penalty: metres of effective extra path per floor crossed,
        # standing in for slab attenuation.
        self._positions: Dict[int, Position] = {}
        self.floor_penalty = floor_penalty
        #: bumped on every placement change; distance-based propagation
        #: models fold this into their epoch so neighborhood caches
        #: (repro.radio.neighborhood) invalidate exactly when geometry
        #: changes and never otherwise.
        self.version = 0
        # Move journal: the nodes whose moves produced the last
        # ``len(_journal)`` versions, oldest first.
        self._journal: Deque[int] = deque(maxlen=self.JOURNAL_LIMIT)

    def add_node(self, node_id: int, x: float, y: float, floor: int = 0) -> None:
        if node_id in self._positions:
            raise ValueError(f"node {node_id} already placed")
        self._positions[node_id] = Position(x, y, floor)
        self.version += 1
        # A placement is not a move: whoever cached anything before it
        # must start over.
        self._journal.clear()

    def move_node(self, node_id: int, x: float, y: float, floor: Optional[int] = None) -> None:
        """Relocate a node (mobility support).

        Propagation models read positions per query, so a move takes
        effect on the next transmission — no re-wiring needed.
        """
        current = self._positions[node_id]
        self._positions[node_id] = Position(
            x, y, current.floor if floor is None else floor
        )
        self.version += 1
        self._journal.append(node_id)

    def moved_since(self, version: int) -> Optional[List[int]]:
        """Nodes moved after ``version`` (oldest first, repeats kept),
        or ``None`` when that is no longer known: a node was placed
        since, or the bounded journal has dropped part of the span."""
        known_from = self.version - len(self._journal)
        if version < known_from:
            return None
        return list(islice(self._journal, version - known_from, None))

    def position(self, node_id: int) -> Position:
        return self._positions[node_id]

    def has_node(self, node_id: int) -> bool:
        return node_id in self._positions

    def node_ids(self) -> List[int]:
        return sorted(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __iter__(self) -> Iterator[int]:
        return iter(self.node_ids())

    def effective_distance(self, a: int, b: int) -> float:
        """Planar distance plus the per-floor crossing penalty."""
        pa, pb = self._positions[a], self._positions[b]
        return pa.planar_distance(pb) + self.floor_penalty * abs(pa.floor - pb.floor)

    def pairs(self) -> Iterable[Tuple[int, int]]:
        ids = self.node_ids()
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                yield a, b

    @classmethod
    def grid(
        cls,
        columns: int,
        rows: int,
        spacing: float = 10.0,
    ) -> "Topology":
        """A regular grid, handy for unit tests and synthetic scenarios:
        row-major ids from 0, all on one floor."""
        topo = cls()
        node_id = 0
        for row in range(rows):
            for col in range(columns):
                topo.add_node(node_id, col * spacing, row * spacing)
                node_id += 1
        return topo

    @classmethod
    def line(cls, count: int, spacing: float = 10.0) -> "Topology":
        """A chain of nodes: the minimal multi-hop topology."""
        return cls.grid(columns=count, rows=1, spacing=spacing)
