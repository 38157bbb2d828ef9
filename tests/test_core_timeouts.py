"""Tests for soft-state lifetimes: gradient and reinforcement expiry,
and negative reinforcement chains at the protocol level."""

import pytest

from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting, MessageType
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.sim import Simulator
from repro.testbed import IdealNetwork


def sub_attrs():
    return AttributeVector.builder().eq(Key.TYPE, "t").build()


def pub_attrs():
    return AttributeVector.builder().actual(Key.TYPE, "t").build()


def sample(seq):
    return AttributeVector.builder().actual(Key.SEQUENCE, seq).build()


def build_line(n, config):
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.01)
    nodes, apis = {}, {}
    for i in range(n):
        nodes[i] = DiffusionNode(sim, i, net.add_node(i), config=config)
        apis[i] = DiffusionRouting(nodes[i])
    for i in range(n - 1):
        net.connect(i, i + 1)
    return sim, net, nodes, apis


class TestGradientExpiry:
    def test_gradients_die_when_interests_stop(self):
        config = DiffusionConfig(
            interest_interval=10.0, gradient_timeout=25.0,
            interest_jitter=0.1, reinforcement_jitter=0.05,
        )
        sim, net, nodes, apis = build_line(3, config)
        handle = apis[0].subscribe(sub_attrs(), lambda a, m: None)
        sim.run(until=5.0)
        apis[0].unsubscribe(handle)
        sim.run(until=60.0)
        # Data from the far end is now dropped at the source: no demand.
        pub = apis[2].publish(pub_attrs())
        apis[2].send(pub, sample(0))
        sim.run(until=70.0)
        assert nodes[2].stats.messages_dropped_no_route >= 1
        assert nodes[0].stats.events_delivered == 0

    def test_sweep_reclaims_dead_entries(self):
        config = DiffusionConfig(
            interest_interval=10.0, gradient_timeout=25.0,
            interest_jitter=0.1, reinforcement_jitter=0.05,
        )
        sim, net, nodes, apis = build_line(3, config)
        handle = apis[0].subscribe(sub_attrs(), lambda a, m: None)
        sim.run(until=5.0)
        assert len(nodes[2].gradients) == 1
        apis[0].unsubscribe(handle)
        sim.run(until=120.0)  # several sweep periods past expiry
        assert len(nodes[2].gradients) == 0


class TestReinforcedExpiry:
    def test_reinforced_path_expires_without_refresh(self):
        # Exploratory only once (long interval); reinforced state has a
        # short timeout, so late plain data is dropped at the source.
        config = DiffusionConfig(
            interest_interval=10.0,
            gradient_timeout=1000.0,
            interest_jitter=0.1,
            exploratory_interval=10_000.0,  # effectively once
            reinforced_timeout=20.0,
            reinforcement_jitter=0.05,
        )
        sim, net, nodes, apis = build_line(3, config)
        received = []
        apis[0].subscribe(sub_attrs(), lambda a, m: received.append(a))
        pub = apis[2].publish(pub_attrs())
        sim.schedule(1.0, apis[2].send, pub, sample(0))   # exploratory
        sim.schedule(5.0, apis[2].send, pub, sample(1))   # plain, fresh path
        sim.schedule(60.0, apis[2].send, pub, sample(2))  # plain, stale path
        sim.run(until=80.0)
        seqs = {a.value_of(Key.SEQUENCE) for a in received}
        assert 0 in seqs and 1 in seqs
        assert 2 not in seqs

    def test_periodic_exploratory_keeps_path_fresh(self):
        config = DiffusionConfig(
            interest_interval=10.0,
            gradient_timeout=30.0,
            interest_jitter=0.1,
            exploratory_interval=15.0,
            reinforced_timeout=40.0,
            reinforcement_jitter=0.05,
        )
        sim, net, nodes, apis = build_line(3, config)
        received = []
        apis[0].subscribe(sub_attrs(), lambda a, m: received.append(a))
        pub = apis[2].publish(pub_attrs())
        for i in range(40):
            sim.schedule(1.0 + i * 3.0, apis[2].send, pub, sample(i))
        sim.run(until=130.0)
        assert len(received) == 40


class TestNegativeReinforcementChain:
    def test_switch_tears_down_old_path_state(self):
        """Diamond with controllable first-copy arrival: force the sink
        to switch preferred relays and verify the loser's reinforced
        state is removed by the negative reinforcement."""
        config = DiffusionConfig(
            interest_interval=10.0,
            gradient_timeout=60.0,
            interest_jitter=0.1,
            exploratory_interval=8.0,
            reinforced_timeout=100.0,
            reinforcement_jitter=0.05,
        )
        sim = Simulator()
        net = IdealNetwork(sim, delay=0.01)
        nodes, apis = {}, {}
        for i in range(4):
            nodes[i] = DiffusionNode(sim, i, net.add_node(i), config=config)
            apis[i] = DiffusionRouting(nodes[i])
        for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            net.connect(a, b)
        apis[0].subscribe(sub_attrs(), lambda a, m: None)
        pub = apis[3].publish(pub_attrs())
        for i in range(20):
            sim.schedule(1.0 + i * 2.0, apis[3].send, pub, sample(i))
        # Degrade path via relay 1 mid-run so exploratory copies start
        # winning through relay 2, forcing a switch.
        sim.schedule(15.0, net.disconnect, 1, 3)
        sim.run(until=60.0)
        neg_total = sum(
            nodes[i].stats.messages_by_type[MessageType.NEGATIVE_REINFORCEMENT]
            for i in range(4)
        )
        assert neg_total >= 1
        # The negative reinforcement removed relay 1's reinforced state
        # for origin 3 (its link to the source is cut, so nothing can
        # re-establish it).
        for entry in nodes[1].gradients.entries():
            assert entry.reinforced_neighbors(3, sim.now) == []
        # Data continues via relay 2.
        assert nodes[2].stats.messages_by_type[MessageType.DATA] >= 5


class TestCacheSizingMatters:
    def test_tiny_cache_still_prevents_immediate_loops(self, monkeypatch):
        """Micro-scale caches (capacity 10) still stop flood loops on
        small networks — the sizing argument behind micro-diffusion."""
        monkeypatch.setattr(DiffusionConfig, "cache_capacity", 10)
        config = DiffusionConfig(reinforcement_jitter=0.05)
        sim = Simulator()
        net = IdealNetwork(sim, delay=0.01)
        nodes, apis = {}, {}
        n = 5
        for i in range(n):
            nodes[i] = DiffusionNode(sim, i, net.add_node(i), config=config)
            apis[i] = DiffusionRouting(nodes[i])
        for i in range(n):
            net.connect(i, (i + 1) % n)  # ring
        received = []
        apis[0].subscribe(sub_attrs(), lambda a, m: received.append(a))
        pub = apis[2].publish(pub_attrs())
        sim.schedule(1.0, apis[2].send, pub, sample(0))
        sim.run(until=20.0, max_events=20_000)
        assert sim.events_processed < 20_000
        assert len(received) == 1
