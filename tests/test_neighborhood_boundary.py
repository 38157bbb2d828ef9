"""BoundaryIndex: cross-cut audibility queries for the sharded kernel.

The index answers, for an arbitrary spatial cut of the node set into
*owned* and *foreign* halves, which owned transmitters must export
(some foreign node may hear them) and which foreign transmitters need
ghosts (some owned node may hear them).  Correctness is defined against
brute force over ``link_prr_bound``; these tests sweep both rebuild
paths (grid-cell bucketing for distance models, the full cross product
for table models) and the epoch invalidation contract under mobility.
"""

import pytest

from repro.radio import (
    DistancePropagation,
    TablePropagation,
    Topology,
)
from repro.radio.neighborhood import BoundaryIndex


def brute_force_cut(propagation, owned, foreign):
    """Reference sets straight from link_prr_bound, both directions."""
    senders = {
        o for o in owned
        if any(propagation.link_prr_bound(o, f) > 0.0 for f in foreign)
    }
    receivers = {
        o for o in owned
        if any(propagation.link_prr_bound(f, o) > 0.0 for f in foreign)
    }
    return senders, receivers


def line_topology(n, spacing):
    topo = Topology()
    for i in range(n):
        topo.add_node(i, i * spacing, 0.0)
    return topo


def grid_topology(columns, rows, spacing):
    topo = Topology()
    for r in range(rows):
        for c in range(columns):
            topo.add_node(r * columns + c, c * spacing, r * spacing)
    return topo


class TestCutAudibility:
    def test_matches_brute_force_on_a_line_cut(self):
        topo = line_topology(10, 20.0)
        prop = DistancePropagation(topo, seed=1)
        owned, foreign = [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]
        index = BoundaryIndex(prop, owned, foreign)
        senders, receivers = brute_force_cut(prop, owned, foreign)
        assert index.boundary_senders() == senders
        assert index.boundary_receivers() == receivers
        # Only nodes near the cut are audible across it; interior nodes
        # must be excluded or exports degenerate to broadcast-all.
        assert 0 not in index.boundary_senders()
        assert 4 in index.boundary_senders()

    @pytest.mark.parametrize("cut_column", [1, 3, 5])
    def test_arbitrary_vertical_cuts_on_a_grid(self, cut_column):
        topo = grid_topology(7, 4, 22.0)
        prop = DistancePropagation(topo, seed=2)
        owned = [n for n in topo.node_ids() if n % 7 <= cut_column]
        foreign = [n for n in topo.node_ids() if n % 7 > cut_column]
        index = BoundaryIndex(prop, owned, foreign)
        senders, receivers = brute_force_cut(prop, owned, foreign)
        assert index.boundary_senders() == senders
        assert index.boundary_receivers() == receivers

    def test_interleaved_cut_is_supported(self):
        """The cut need not be spatially contiguous: k-means partitions
        and mid-run mobility produce ragged ownership."""
        topo = grid_topology(6, 3, 18.0)
        prop = DistancePropagation(topo, seed=3)
        owned = [n for n in topo.node_ids() if n % 2 == 0]
        foreign = [n for n in topo.node_ids() if n % 2 == 1]
        index = BoundaryIndex(prop, owned, foreign)
        senders, receivers = brute_force_cut(prop, owned, foreign)
        assert index.boundary_senders() == senders
        assert index.boundary_receivers() == receivers

    def test_table_model_falls_back_to_cross_product(self):
        prop = TablePropagation({
            (0, 2): 1.0,          # owned -> foreign
            (3, 1): 0.5,          # foreign -> owned
            (0, 1): 1.0,          # owned -> owned (not across the cut)
        })
        index = BoundaryIndex(prop, [0, 1], [2, 3])
        assert index.boundary_senders() == {0}
        assert index.boundary_receivers() == {1}
        assert index.listeners_across(3) == [1]

    def test_listeners_across_serves_both_sides(self):
        topo = line_topology(6, 20.0)
        prop = DistancePropagation(topo, seed=4)
        owned, foreign = [0, 1, 2], [3, 4, 5]
        index = BoundaryIndex(prop, owned, foreign)
        for src in owned:
            expected = sorted(
                f for f in foreign
                if prop.link_prr_bound(src, f) > 0.0
            )
            assert index.listeners_across(src) == expected
        for src in foreign:
            expected = sorted(
                o for o in owned
                if prop.link_prr_bound(src, o) > 0.0
            )
            assert index.listeners_across(src) == expected

    def test_interior_node_has_no_listeners_across(self):
        topo = line_topology(12, 25.0)
        prop = DistancePropagation(topo, seed=5)
        index = BoundaryIndex(prop, list(range(6)), list(range(6, 12)))
        assert index.listeners_across(0) == []


class TestEpochInvalidation:
    def test_move_across_the_cut_updates_the_sets(self):
        """A node walking toward the cut becomes audible across it; the
        index must notice via the propagation epoch, with no explicit
        invalidation call from the caller."""
        topo = line_topology(8, 24.0)
        prop = DistancePropagation(topo, seed=6)
        owned, foreign = [0, 1, 2, 3], [4, 5, 6, 7]
        index = BoundaryIndex(prop, owned, foreign)
        # Node 0 starts far from the cut (x=0, cut near x=84).
        assert 0 not in index.boundary_senders()
        rebuilds_before = index.rebuilds
        topo.move_node(0, 24.0 * 3.5, 0.0)   # right next to node 4
        senders, receivers = brute_force_cut(prop, owned, foreign)
        assert 0 in senders
        assert index.boundary_senders() == senders
        assert index.boundary_receivers() == receivers
        assert index.rebuilds == rebuilds_before + 1

    def test_no_rebuild_while_epoch_is_stable(self):
        topo = line_topology(6, 20.0)
        prop = DistancePropagation(topo, seed=7)
        index = BoundaryIndex(prop, [0, 1, 2], [3, 4, 5])
        index.boundary_senders()
        rebuilds = index.rebuilds
        checks = index.pair_checks
        for _ in range(5):
            index.boundary_senders()
            index.boundary_receivers()
            index.listeners_across(0)
        assert index.rebuilds == rebuilds
        assert index.pair_checks == checks

    def test_move_away_shrinks_the_sets(self):
        topo = line_topology(6, 20.0)
        prop = DistancePropagation(topo, seed=8)
        owned, foreign = [0, 1, 2], [3, 4, 5]
        index = BoundaryIndex(prop, owned, foreign)
        assert 2 in index.boundary_senders()
        topo.move_node(2, -500.0, 0.0)
        assert 2 not in index.boundary_senders()
        senders, receivers = brute_force_cut(prop, owned, foreign)
        assert index.boundary_senders() == senders
        assert index.boundary_receivers() == receivers


class TestBucketedRebuildCost:
    def test_pair_checks_stay_near_the_boundary(self):
        """With a spatial bound the rebuild probes O(boundary) pairs,
        not O(owned x foreign) — the property that keeps 10k-node
        sharded rebuilds affordable under mobility."""
        topo = grid_topology(20, 20, 25.0)   # 400 nodes
        prop = DistancePropagation(topo, seed=9)
        owned = [n for n in topo.node_ids() if n % 20 < 10]
        foreign = [n for n in topo.node_ids() if n % 20 >= 10]
        index = BoundaryIndex(prop, owned, foreign)
        index.boundary_senders()
        full_cross_product = len(owned) * len(foreign)
        assert index.pair_checks < full_cross_product / 4
        # And the pruned probe set still reproduces brute force.
        senders, receivers = brute_force_cut(prop, owned, foreign)
        assert index.boundary_senders() == senders
        assert index.boundary_receivers() == receivers


class TestValidation:
    def test_overlapping_cut_is_rejected(self):
        topo = line_topology(4, 10.0)
        prop = DistancePropagation(topo, seed=1)
        with pytest.raises(ValueError, match="not a partition"):
            BoundaryIndex(prop, [0, 1, 2], [2, 3])
