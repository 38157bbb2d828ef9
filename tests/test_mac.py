"""Tests for the CSMA MAC layer."""

import random

import pytest

from repro.mac import CsmaMac
from repro.radio import Channel, Modem, RadioParams, TablePropagation
from repro.sim import SeedSequence, Simulator


def make_csma_net(links, n_nodes=3):
    sim = Simulator()
    channel = Channel(sim, TablePropagation(links), seeds=SeedSequence(1))
    modems = [Modem(sim, channel, node_id=i) for i in range(n_nodes)]
    macs = [
        CsmaMac(sim, modem, rng=random.Random(100 + i))
        for i, modem in enumerate(modems)
    ]
    return sim, channel, modems, macs


class Sink:
    def __init__(self, modem):
        self.received = []
        modem.receive_callback = self._on_receive

    def _on_receive(self, payload, src, nbytes, link_dst):
        self.received.append((payload, src))


class TestCsma:
    def test_single_fragment_delivery(self):
        sim, channel, modems, macs = make_csma_net({(0, 1): 1.0})
        sink = Sink(modems[1])
        macs[0].enqueue("hello", 20)
        sim.run()
        assert sink.received == [("hello", 0)]

    def test_queue_drains_in_order(self):
        sim, channel, modems, macs = make_csma_net({(0, 1): 1.0})
        sink = Sink(modems[1])
        for i in range(5):
            macs[0].enqueue(f"m{i}", 10)
        sim.run()
        assert [p for p, _ in sink.received] == [f"m{i}" for i in range(5)]

    def test_queue_overflow_drops(self):
        sim, channel, modems, macs = make_csma_net({(0, 1): 1.0})
        macs[0].queue_limit = 4
        accepted = [macs[0].enqueue(f"m{i}", 10) for i in range(8)]
        assert accepted.count(True) == 4
        assert macs[0].stats.dropped_queue_full == 4

    def test_carrier_sense_avoids_collision(self):
        # 0 and 2 CAN hear each other here; with carrier sensing their
        # back-to-back broadcasts must both reach 1.
        links = {(0, 1): 1.0, (2, 1): 1.0, (0, 2): 1.0, (2, 0): 1.0}
        sim, channel, modems, macs = make_csma_net(links)
        sink = Sink(modems[1])
        macs[0].enqueue("a", 27)
        macs[2].enqueue("b", 27)
        sim.run()
        assert len(sink.received) == 2

    def test_hidden_terminals_still_collide_under_load(self):
        # 0 and 2 cannot hear each other: offered load high enough that
        # overlap is certain to happen sometimes.
        links = {(0, 1): 1.0, (2, 1): 1.0}
        sim, channel, modems, macs = make_csma_net(links)
        sink = Sink(modems[1])
        for i in range(50):
            sim.schedule(i * 0.02, macs[0].enqueue, f"a{i}", 27)
            sim.schedule(i * 0.02, macs[2].enqueue, f"b{i}", 27)
        sim.run()
        assert channel.fragments_collided > 0
        assert len(sink.received) < 100

    def test_backoff_counter_increments(self):
        links = {(0, 1): 1.0, (2, 1): 1.0, (0, 2): 1.0, (2, 0): 1.0}
        sim, channel, modems, macs = make_csma_net(links)
        for i in range(20):
            macs[0].enqueue(f"a{i}", 27)
            macs[2].enqueue(f"b{i}", 27)
        sim.run()
        assert macs[0].stats.backoffs + macs[2].stats.backoffs > 0

    def test_stats_transmitted(self):
        sim, channel, modems, macs = make_csma_net({(0, 1): 1.0})
        for i in range(3):
            macs[0].enqueue(f"m{i}", 10)
        sim.run()
        assert macs[0].stats.transmitted == 3
        assert macs[0].stats.enqueued == 3
