"""Spatial partitioners for the sharded kernel.

A partition must be a true partition (every node in exactly one
shard), deterministic (the same topology and shard count always produce
the same cut — shard equivalence depends on it), and balanced enough
that the critical path is not one overloaded shard.
"""

import pytest

from repro.radio import Topology
from repro.shard import grid_partition, partition_nodes


def grid_topology(columns, rows, spacing=10.0):
    topo = Topology()
    for r in range(rows):
        for c in range(columns):
            topo.add_node(r * columns + c, c * spacing, r * spacing)
    return topo


def assert_is_partition(parts, topology):
    flat = [n for part in parts for n in part]
    assert sorted(flat) == topology.node_ids()
    assert len(flat) == len(set(flat))
    assert all(part for part in parts)


@pytest.mark.parametrize("shards", [1, 2, 3, 4, 7], ids="{}-grid".format)
def test_every_node_lands_in_exactly_one_shard(shards):
    topo = grid_topology(8, 6)
    parts = partition_nodes(topo, shards)
    assert len(parts) == shards
    assert_is_partition(parts, topo)


def test_partition_is_deterministic():
    a = partition_nodes(grid_topology(9, 5), 4)
    b = partition_nodes(grid_topology(9, 5), 4)
    assert a == b


@pytest.mark.parametrize("shards", [2, 4, 8], ids="{}-grid".format)
def test_partition_is_balanced(shards):
    topo = grid_topology(16, 8)   # 128 nodes
    parts = partition_nodes(topo, shards)
    sizes = [len(p) for p in parts]
    ideal = len(topo) / shards
    assert max(sizes) <= ideal * 1.5
    assert min(sizes) >= ideal * 0.5


def test_grid_partition_cuts_are_spatially_contiguous_slabs():
    """A 2-shard grid cut of a wide grid splits along x: each shard
    holds whole columns, so the boundary is one column seam."""
    topo = grid_topology(10, 4)
    left, right = grid_partition(topo, 2)
    max_left_x = max(topo.position(n).x for n in left)
    min_right_x = min(topo.position(n).x for n in right)
    assert max_left_x < min_right_x


def test_grid_partition_single_shard_owns_everything():
    topo = grid_topology(4, 4)
    parts = grid_partition(topo, 1)
    assert parts == [topo.node_ids()]


def test_more_shards_than_nodes_is_rejected():
    topo = grid_topology(2, 2)
    with pytest.raises(ValueError):
        partition_nodes(topo, 5)


def test_zero_shards_is_rejected():
    with pytest.raises(ValueError):
        partition_nodes(grid_topology(2, 2), 0)
