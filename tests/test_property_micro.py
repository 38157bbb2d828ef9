"""Property-based tests for micro-diffusion on random mote topologies."""

from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.micro import MicroDiffusionNode, microdiffusion
from repro.sim import Simulator
from repro.testbed import IdealNetwork

TAG = 3


@st.composite
def mote_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    edges = set()
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.add((parent, node))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return n, sorted(edges)


def build(n, edges):
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.005)
    motes = {}
    for i in range(n):
        motes[i] = MicroDiffusionNode(sim, i, net.add_node(i))
    for a, b in edges:
        net.connect(a, b)
    return sim, motes


class TestMicroFloodInvariants:
    @given(mote_graphs())
    @settings(max_examples=40, deadline=None)
    def test_data_reaches_subscriber_exactly_once(self, graph):
        n, edges = graph
        sim, motes = build(n, edges)
        received = []
        motes[0].subscribe(TAG, received.append)
        sim.schedule(1.0, motes[n - 1].send, TAG, b"\x01")
        sim.run(until=10.0)
        assert len(received) == (1 if n > 1 else 0) or n == 1

    @given(mote_graphs())
    @settings(max_examples=40, deadline=None)
    def test_interest_transmitted_at_most_once_per_node(self, graph):
        n, edges = graph
        sim, motes = build(n, edges)
        motes[0].subscribe(TAG, lambda m: None)
        sim.run(until=5.0)
        for mote in motes.values():
            assert mote.stats_tx_messages <= 1

    @given(mote_graphs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_static_tables_never_exceed_configured_sizes(self, graph, size):
        n, edges = graph
        sim, motes = build(n, edges)
        received = []
        with mock.patch.multiple(
            microdiffusion, MAX_GRADIENTS=size, CACHE_PACKETS=size
        ):
            motes[0].subscribe(TAG, received.append)
            for i in range(6):
                sim.schedule(1.0 + i, motes[n - 1].send, TAG, bytes([i]))
            sim.run(until=20.0)
        for mote in motes.values():
            assert len(mote.gradients) <= size
            assert len(mote.cache) <= size

    @given(mote_graphs())
    @settings(max_examples=30, deadline=None)
    def test_quiesces(self, graph):
        n, edges = graph
        sim, motes = build(n, edges)
        motes[0].subscribe(TAG, lambda m: None)
        sim.schedule(1.0, motes[n - 1].send, TAG, b"\x01")
        sim.run(until=30.0, max_events=10_000)
        assert sim.events_processed < 10_000
