"""Spatial partitioning of a deployment into shards.

A good shard cut for conservative parallel simulation minimizes the
boundary (nodes audible across the cut) while balancing population, so
per-window work is even and the export traffic small.
:func:`grid_partition` cuts quantile slabs: split the x axis into
near-equal-population slabs, then each slab along y.  Deterministic,
parameter-free, and near-optimal on the uniform-ish deployments the
paper's scenarios use.

It returns a list of ``shards`` sorted node-id lists covering every
node exactly once, and is a pure function of (topology, shards), so
every worker derives the identical cut.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.radio.topology import Topology


def _axis_factors(shards: int) -> Tuple[int, int]:
    """Split ``shards`` into the most square (columns, rows) grid."""
    best = (shards, 1)
    for rows in range(1, int(math.isqrt(shards)) + 1):
        if shards % rows == 0:
            best = (shards // rows, rows)
    return best


def _slab_split(ids: Sequence[int], pieces: int) -> List[List[int]]:
    """Cut an ordered id sequence into ``pieces`` near-equal runs."""
    out: List[List[int]] = []
    n = len(ids)
    for i in range(pieces):
        lo = (n * i) // pieces
        hi = (n * (i + 1)) // pieces
        out.append(list(ids[lo:hi]))
    return out


def grid_partition(topology: Topology, shards: int) -> List[List[int]]:
    """Quantile-slab cut: x slabs, then y slabs inside each.

    Sorting is by (coordinate, node id) so equal coordinates — grid
    deployments are full of them — still split deterministically.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    ids = topology.node_ids()
    if shards == 1:
        return [ids]
    if shards > len(ids):
        raise ValueError(
            f"cannot cut {len(ids)} nodes into {shards} shards"
        )
    columns, rows = _axis_factors(shards)
    by_x = sorted(ids, key=lambda n: (topology.position(n).x, n))
    parts: List[List[int]] = []
    for slab in _slab_split(by_x, columns):
        by_y = sorted(slab, key=lambda n: (topology.position(n).y, n))
        parts.extend(_slab_split(by_y, rows))
    return [sorted(part) for part in parts]


def partition_nodes(topology: Topology, shards: int) -> List[List[int]]:
    """The cut every shard runtime derives; every shard list is non-empty."""
    parts = grid_partition(topology, shards)
    if any(not part for part in parts):
        raise ValueError(
            f"grid partition produced an empty shard for "
            f"{len(topology)} nodes / {shards} shards"
        )
    return parts
