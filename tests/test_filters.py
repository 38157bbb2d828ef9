"""Tests for the in-network processing filters."""

import pytest

from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting, MessageType
from repro.filters import CountingAggregationFilter, GearFilter, SuppressionFilter
from repro.filters import aggregation
from repro.filters.gear import distance_to_region, region_of
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio import Topology
from repro.sim import Simulator
from repro.testbed import IdealNetwork


def build_net(n, connect_pairs, config=None):
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.01)
    nodes, apis = {}, {}
    for i in range(n):
        transport = net.add_node(i)
        nodes[i] = DiffusionNode(
            sim, i, transport,
            config=config or DiffusionConfig(reinforcement_jitter=0.05),
        )
        apis[i] = DiffusionRouting(nodes[i])
    for a, b in connect_pairs:
        net.connect(a, b)
    return sim, net, nodes, apis


def surveillance_sub():
    return AttributeVector.builder().eq(Key.TYPE, "det").build()


def surveillance_pub():
    return AttributeVector.builder().actual(Key.TYPE, "det").build()


def event(seq):
    return AttributeVector.builder().actual(Key.SEQUENCE, seq).build()


class TestSuppressionFilter:
    def test_duplicate_events_from_two_sources_suppressed(self):
        # Y topology: sources 3 and 4 both feed relay 1 via 2; sink at 0.
        sim, net, nodes, apis = build_net(
            5, [(0, 1), (1, 2), (2, 3), (2, 4)]
        )
        filters = [SuppressionFilter(nodes[i]) for i in range(5)]
        received = []
        apis[0].subscribe(surveillance_sub(), lambda a, m: received.append(a))
        pubs = {i: apis[i].publish(surveillance_pub()) for i in (3, 4)}
        for seq in range(5):
            for src in (3, 4):
                sim.schedule(1.0 + seq, apis[src].send, pubs[src], event(seq))
        sim.run(until=20.0)
        # Each event delivered exactly once despite two reporters.
        seqs = [a.value_of(Key.SEQUENCE) for a in received]
        assert sorted(seqs) == [0, 1, 2, 3, 4]
        assert sum(f.suppressed for f in filters) > 0

    def test_distinct_sequences_pass(self):
        sim, net, nodes, apis = build_net(2, [(0, 1)])
        filt = SuppressionFilter(nodes[1])
        received = []
        apis[0].subscribe(surveillance_sub(), lambda a, m: received.append(a))
        pub = apis[1].publish(surveillance_pub())
        for seq in range(4):
            sim.schedule(1.0 + seq, apis[1].send, pub, event(seq))
        sim.run(until=10.0)
        assert len(received) == 4
        assert filt.suppressed == 0

    def test_non_data_messages_pass_through(self):
        sim, net, nodes, apis = build_net(3, [(0, 1), (1, 2)])
        SuppressionFilter(nodes[1])
        apis[0].subscribe(surveillance_sub(), lambda a, m: None)
        sim.run(until=2.0)
        # Interest flooded through the filtered relay to node 2.
        assert len(nodes[2].gradients) == 1

    def test_messages_without_sequence_pass(self):
        sim, net, nodes, apis = build_net(2, [(0, 1)])
        filt = SuppressionFilter(nodes[1])
        received = []
        apis[0].subscribe(surveillance_sub(), lambda a, m: received.append(a))
        pub = apis[1].publish(surveillance_pub())
        no_seq = AttributeVector.builder().actual(Key.INSTANCE, "x").build()
        sim.schedule(1.0, apis[1].send, pub, no_seq)
        sim.run(until=5.0)
        assert len(received) == 1
        assert filt.passed == 0  # bypassed, not counted as an event

    def test_window_expiry_allows_seq_reuse(self, monkeypatch):
        monkeypatch.setattr(aggregation, "SUPPRESSION_WINDOW", 5.0)
        sim, net, nodes, apis = build_net(2, [(0, 1)])
        filt = SuppressionFilter(nodes[1])
        received = []
        apis[0].subscribe(surveillance_sub(), lambda a, m: received.append(a))
        pub = apis[1].publish(surveillance_pub())
        sim.schedule(1.0, apis[1].send, pub, event(7))
        sim.schedule(10.0, apis[1].send, pub, event(7))
        sim.run(until=20.0)
        assert len(received) == 2

    def test_remove(self):
        sim, net, nodes, apis = build_net(2, [(0, 1)])
        filt = SuppressionFilter(nodes[1])
        filt.remove()
        assert len(nodes[1]._filters) == 1  # only the gradient core


class TestCountingAggregation:
    def test_aggregate_carries_detection_count(self):
        # Sources 2 and 3 one hop from aggregator 1, sink at 0.
        sim, net, nodes, apis = build_net(4, [(0, 1), (1, 2), (1, 3)])
        agg = CountingAggregationFilter(nodes[1], delay=0.5)
        received = []
        apis[0].subscribe(surveillance_sub(), lambda a, m: received.append(a))
        pubs = {i: apis[i].publish(surveillance_pub()) for i in (2, 3)}
        for src in (2, 3):
            sim.schedule(1.0, apis[src].send, pubs[src], event(0))
        sim.run(until=10.0)
        assert len(received) == 1
        count = received[0].value_of(CountingAggregationFilter.DETECTIONS_KEY)
        assert count == 2
        assert agg.aggregates_sent == 1
        # The second source's report was absorbed; flood echoes of the
        # aggregate may be absorbed too (they carry the same event key).
        assert agg.reports_absorbed >= 1

    def test_single_report_counts_one(self):
        sim, net, nodes, apis = build_net(3, [(0, 1), (1, 2)])
        CountingAggregationFilter(nodes[1], delay=0.2)
        received = []
        apis[0].subscribe(surveillance_sub(), lambda a, m: received.append(a))
        pub = apis[2].publish(surveillance_pub())
        sim.schedule(1.0, apis[2].send, pub, event(0))
        sim.run(until=10.0)
        assert len(received) == 1
        assert received[0].value_of(CountingAggregationFilter.DETECTIONS_KEY) == 1

    def test_aggregation_adds_latency(self):
        sim, net, nodes, apis = build_net(3, [(0, 1), (1, 2)])
        CountingAggregationFilter(nodes[1], delay=1.0)
        arrivals = []
        apis[0].subscribe(
            surveillance_sub(), lambda a, m: arrivals.append(sim.now)
        )
        pub = apis[2].publish(surveillance_pub())
        sim.schedule(2.0, apis[2].send, pub, event(0))
        sim.run(until=10.0)
        assert len(arrivals) == 1
        assert arrivals[0] >= 3.0  # send time + aggregation delay

    def test_late_duplicates_after_flush_absorbed(self):
        sim, net, nodes, apis = build_net(4, [(0, 1), (1, 2), (1, 3)])
        agg = CountingAggregationFilter(nodes[1], delay=0.2)
        received = []
        apis[0].subscribe(surveillance_sub(), lambda a, m: received.append(a))
        pubs = {i: apis[i].publish(surveillance_pub()) for i in (2, 3)}
        sim.schedule(1.0, apis[2].send, pubs[2], event(0))
        sim.schedule(2.0, apis[3].send, pubs[3], event(0))  # after flush
        sim.run(until=10.0)
        assert len(received) == 1
        assert agg.reports_absorbed >= 1

    def test_remove_cancels_pending(self):
        sim, net, nodes, apis = build_net(3, [(0, 1), (1, 2)])
        agg = CountingAggregationFilter(nodes[1], delay=5.0)
        received = []
        apis[0].subscribe(surveillance_sub(), lambda a, m: received.append(a))
        pub = apis[2].publish(surveillance_pub())
        sim.schedule(1.0, apis[2].send, pub, event(0))
        sim.schedule(2.0, agg.remove)
        sim.run(until=20.0)
        assert received == []  # held message discarded on removal


class TestGearRegionMath:
    def test_region_of_extracts_rectangle(self):
        attrs = (
            AttributeVector.builder()
            .ge(Key.X_COORD, 10.0).le(Key.X_COORD, 20.0)
            .ge(Key.Y_COORD, 0.0).le(Key.Y_COORD, 5.0)
            .build()
        )
        assert region_of(attrs) == (10.0, 20.0, 0.0, 5.0)

    def test_region_of_requires_all_bounds(self):
        attrs = AttributeVector.builder().ge(Key.X_COORD, 10.0).build()
        assert region_of(attrs) is None

    def test_distance_inside_is_zero(self):
        assert distance_to_region(15.0, 2.0, (10, 20, 0, 5)) == 0.0

    def test_distance_outside(self):
        assert distance_to_region(25.0, 2.0, (10, 20, 0, 5)) == pytest.approx(5.0)
        assert distance_to_region(23.0, 9.0, (10, 20, 0, 5)) == pytest.approx(5.0)


class TestGearFilter:
    def _line_with_gear(self, n=6, region_at_end=True):
        """Line 0..n-1 with positions; interest region around node n-1."""
        topo = Topology.line(n, spacing=10.0)
        sim, net, nodes, apis = build_net(
            n, [(i, i + 1) for i in range(n - 1)]
        )
        gears = [GearFilter(nodes[i], topo, slack=2.0) for i in range(n)]
        return topo, sim, net, nodes, apis, gears

    def test_interest_still_reaches_region(self):
        topo, sim, net, nodes, apis, gears = self._line_with_gear()
        region_sub = (
            AttributeVector.builder()
            .eq(Key.TYPE, "det")
            .ge(Key.X_COORD, 45.0).le(Key.X_COORD, 55.0)
            .ge(Key.Y_COORD, -5.0).le(Key.Y_COORD, 5.0)
            .build()
        )
        apis[0].subscribe(region_sub, lambda a, m: None)
        sim.run(until=2.0)
        # Node 5 at x=50 is in the region and must have the gradient.
        assert len(nodes[5].gradients) == 1

    def test_pruning_happens_off_axis(self):
        # Star: center 0 connects to region-ward 1 and away-ward 2.
        topo = Topology()
        topo.add_node(0, 0.0, 0.0)
        topo.add_node(1, 10.0, 0.0)   # toward region
        topo.add_node(2, -10.0, 0.0)  # away from region
        topo.add_node(3, -20.0, 0.0)  # further away
        sim, net, nodes, apis = build_net(4, [(0, 1), (0, 2), (2, 3)])
        gears = [GearFilter(nodes[i], topo, slack=2.0) for i in range(4)]
        region_sub = (
            AttributeVector.builder()
            .eq(Key.TYPE, "det")
            .ge(Key.X_COORD, 25.0).le(Key.X_COORD, 35.0)
            .ge(Key.Y_COORD, -5.0).le(Key.Y_COORD, 5.0)
            .build()
        )
        apis[0].subscribe(region_sub, lambda a, m: None)
        sim.run(until=2.0)
        # Node 2 (moving away) pruned the interest: 3 never saw it.
        assert gears[2].pruned >= 1
        assert len(nodes[3].gradients) == 0

    def test_non_geographic_interest_untouched(self):
        topo, sim, net, nodes, apis, gears = self._line_with_gear()
        apis[0].subscribe(surveillance_sub(), lambda a, m: None)
        sim.run(until=2.0)
        assert all(g.pruned == 0 for g in gears)
        assert len(nodes[5].gradients) == 1

    def test_gear_reduces_flood_traffic(self):
        # Grid: sink at one corner, region at the opposite corner.
        topo = Topology.grid(columns=4, rows=4, spacing=10.0)
        pairs = []
        for i in range(16):
            if i % 4 < 3:
                pairs.append((i, i + 1))
            if i < 12:
                pairs.append((i, i + 4))
        # Region around node 1 at (10, 0): the far side of the grid
        # moves away from it and should be pruned.
        region_sub = (
            AttributeVector.builder()
            .eq(Key.TYPE, "det")
            .ge(Key.X_COORD, 5.0).le(Key.X_COORD, 15.0)
            .ge(Key.Y_COORD, -5.0).le(Key.Y_COORD, 5.0)
            .build()
        )

        def interest_tx(nodes):
            return sum(
                n.stats.messages_by_type[MessageType.INTEREST]
                for n in nodes.values()
            )

        sim, net, nodes, apis = build_net(16, pairs)
        apis[0].subscribe(region_sub, lambda a, m: None)
        sim.run(until=2.0)
        baseline = interest_tx(nodes)

        sim2, net2, nodes2, apis2 = build_net(16, pairs)
        for i in range(16):
            GearFilter(nodes2[i], topo, slack=2.0)
        apis2[0].subscribe(region_sub, lambda a, m: None)
        sim2.run(until=2.0)
        with_gear = interest_tx(nodes2)
        assert with_gear < baseline
