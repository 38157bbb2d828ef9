"""Tests for per-node clocks and RBS time synchronization."""

import pytest

from repro.apps.timesync import (
    SyncCoordinator,
    SyncParticipant,
    TimeBeacon,
)
from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
from repro.sim import Simulator
from repro.sim.clock import NodeClock
from repro.testbed import IdealNetwork


def skewed_clock(offset=0.0, drift_ppm=0.0):
    """A clock stepped and skewed the way a ClockSkew fault does it."""
    clock = NodeClock()
    clock.offset = offset
    clock.drift_ppm = drift_ppm
    return clock


class TestNodeClock:
    def test_offset(self):
        clock = skewed_clock(offset=2.5)
        assert clock.local_time(10.0) == pytest.approx(12.5)
        assert clock.true_time(12.5) == pytest.approx(10.0)

    def test_drift(self):
        clock = skewed_clock(drift_ppm=100.0)  # 100 ppm fast
        assert clock.local_time(10_000.0) == pytest.approx(10_001.0)

    def test_adjust_steps_offset(self):
        clock = skewed_clock(offset=1.0)
        clock.adjust(-1.0)
        assert clock.local_time(5.0) == pytest.approx(5.0)
        assert clock.adjustments == 1

    def test_error_vs(self):
        a = skewed_clock(offset=0.10)
        b = skewed_clock(offset=-0.05)
        assert a.error_vs(b, 0.0) == pytest.approx(0.15)


def build_rbs_network(offsets, drifts=None):
    """Star: beacon at hub 0; participants 1..n; coordinator at 1."""
    n = len(offsets)
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.001)
    config = DiffusionConfig(reinforcement_jitter=0.05)
    apis, clocks = {}, {}
    for i in range(n + 1):
        node = DiffusionNode(sim, i, net.add_node(i), config=config)
        apis[i] = DiffusionRouting(node)
    for i in range(1, n + 1):
        net.connect(0, i)
        # Participants can hear each other's observation reports via
        # the hub; connect them pairwise through node 0 only.
    clocks = {
        i + 1: skewed_clock(offsets[i], drifts[i] if drifts else 0.0)
        for i in range(n)
    }
    beacon = TimeBeacon(apis[0], interval=5.0)
    participants = {
        i: SyncParticipant(apis[i], clocks[i]) for i in clocks
    }
    coordinator = SyncCoordinator(apis[1])
    return sim, clocks, beacon, participants, coordinator


class TestRbs:
    def test_offsets_estimated_from_shared_beacons(self):
        sim, clocks, beacon, participants, coordinator = build_rbs_network(
            offsets=[0.0, 0.120, -0.080]
        )
        sim.run(until=60.0)
        assert coordinator.reports_received > 0
        assert set(coordinator.participants()) == {1, 2, 3}
        assert coordinator.shared_beacons(2, 1) >= 5
        # Node 2 is 120 ms ahead of node 1; node 3 is 80 ms behind.
        assert coordinator.offset_estimate(2, 1) == pytest.approx(0.120, abs=1e-6)
        assert coordinator.offset_estimate(3, 1) == pytest.approx(-0.080, abs=1e-6)

    def test_sender_delays_cancel(self):
        """RBS's defining property: beacon send-side timing is
        irrelevant — only receiver clocks matter.  The beacon's own
        schedule jitter does not affect the estimates."""
        sim, clocks, beacon, participants, coordinator = build_rbs_network(
            offsets=[0.5, -0.3]
        )
        sim.run(until=60.0)
        assert coordinator.offset_estimate(2, 1) == pytest.approx(-0.8, abs=1e-6)

    def test_corrections_synchronize_clocks(self):
        sim, clocks, beacon, participants, coordinator = build_rbs_network(
            offsets=[0.2, -0.15, 0.07]
        )
        sim.run(until=60.0)
        corrections = coordinator.apply_corrections(clocks, reference=1)
        assert set(corrections) == {2, 3}
        now = sim.now
        for node in (2, 3):
            assert clocks[node].error_vs(clocks[1], now) < 1e-6

    def test_unknown_pair_returns_none(self):
        sim, clocks, beacon, participants, coordinator = build_rbs_network(
            offsets=[0.0]
        )
        sim.run(until=20.0)
        assert coordinator.offset_estimate(9, 1) is None

    def test_drifting_clocks_estimate_tracks_mean_offset(self):
        sim, clocks, beacon, participants, coordinator = build_rbs_network(
            offsets=[0.0, 0.0], drifts=[0.0, 50.0]  # node 2 runs fast
        )
        sim.run(until=100.0)
        estimate = coordinator.offset_estimate(2, 1)
        # 50 ppm over ~100 s accumulates ~2.5 ms mean offset.
        assert estimate is not None
        assert 0.0 < estimate < 0.01
