"""Tests for collaborative signal processing (fusion + tracking)."""

import math

import pytest

from repro.apps.fusion import (
    FusionFilter,
    MovingTarget,
    ProximitySensor,
    TrackingSink,
)
from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
from repro.radio import Topology
from repro.shard import ShardPlan, run_oracle
from repro.sim import Simulator
from repro.testbed import IdealNetwork


class TestMovingTarget:
    def test_positions_along_path(self):
        target = MovingTarget(start=(0, 0), end=(100, 0), speed=10.0)
        assert target.position_at(0.0) == (0, 0)
        x, y = target.position_at(5.0)
        assert x == pytest.approx(50.0)
        assert target.position_at(100.0) == (100.0, 0.0)  # clamped at end

    def test_departure_delay(self):
        target = MovingTarget(start=(0, 0), end=(10, 0), speed=1.0,
                              depart_at=5.0)
        assert target.position_at(3.0) == (0, 0)
        assert target.position_at(6.0)[0] == pytest.approx(1.0)
        assert target.arrival_time == pytest.approx(15.0)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            MovingTarget((0, 0), (1, 0), speed=0.0)


class TestFusionMath:
    def test_fuse_confidences_independence(self):
        assert FusionFilter.fuse_confidences([0.5, 0.5]) == pytest.approx(0.75)
        assert FusionFilter.fuse_confidences([0.9]) == pytest.approx(0.9)
        assert FusionFilter.fuse_confidences([]) == 0.0

    def test_fused_confidence_at_least_best_single(self):
        values = [0.3, 0.6, 0.2]
        assert FusionFilter.fuse_confidences(values) >= max(values)

    def test_weighted_centroid(self):
        observations = [(0.0, 0.0, 1.0), (10.0, 0.0, 3.0)]
        x, y = FusionFilter.weighted_centroid(observations)
        assert x == pytest.approx(7.5)
        assert y == 0.0

    def test_centroid_zero_weights_falls_back_to_mean(self):
        observations = [(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]
        assert FusionFilter.weighted_centroid(observations) == (5.0, 5.0)


class TestProximitySensor:
    def test_confidence_decays_with_distance(self):
        sim = Simulator()
        net = IdealNetwork(sim)
        topo = Topology()
        topo.add_node(0, 0.0, 0.0)
        target = MovingTarget((0, 0), (1, 0), speed=0.001)
        api = DiffusionRouting(DiffusionNode(sim, 0, net.add_node(0)))
        sensor = ProximitySensor(api, target, topo, sense_range=25.0)
        assert sensor.confidence_for(0.0) == pytest.approx(0.95)
        assert sensor.confidence_for(10.0) < sensor.confidence_for(5.0)
        assert sensor.confidence_for(26.0) == 0.0


def build_tracking_field(with_fusion: bool):
    """A line of 4 sensors feeding relay 4, sink at 5; target crosses
    the sensor line."""
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.01)
    topo = Topology()
    sensor_ids = [0, 1, 2, 3]
    for i in sensor_ids:
        topo.add_node(i, i * 12.0, 0.0)
    topo.add_node(4, 18.0, 15.0)   # relay / fusion point
    topo.add_node(5, 18.0, 30.0)   # sink
    config = DiffusionConfig(reinforcement_jitter=0.05)
    nodes, apis = {}, {}
    for i in topo.node_ids():
        nodes[i] = DiffusionNode(sim, i, net.add_node(i), config=config)
        apis[i] = DiffusionRouting(nodes[i])
    for i in sensor_ids:
        net.connect(i, 4)
    net.connect(4, 5)
    target = MovingTarget(start=(-10.0, 0.0), end=(50.0, 0.0), speed=2.0,
                          depart_at=2.0)
    fusion = FusionFilter(nodes[4], delay=0.5) if with_fusion else None
    sink = TrackingSink(apis[5], target)
    sensors = [ProximitySensor(apis[i], target, topo) for i in sensor_ids]
    return sim, sink, sensors, fusion, nodes, target


class TestTracking:
    """The ``tracking`` preset, plus the with/without-fusion comparison
    the preset has no switch for, on its own small network."""

    @pytest.fixture(scope="class")
    def tracking(self):
        return run_oracle(ShardPlan.named("tracking", {}, seed=1))

    def test_track_follows_target(self, tracking):
        track = tracking["track"]
        assert len(track) >= 5
        error = tracking["mean_error"]
        assert error is not None
        # Estimates stay within the sensor geometry's resolution.
        assert error < 15.0
        # The track's x estimates advance with the target.
        assert track[-1]["x"] > track[0]["x"]

    def test_fusion_combines_multiple_sensors(self, tracking):
        assert tracking["fused_estimates"] >= 5
        assert tracking["reports_fused"] >= 1  # overlapping coverage existed
        assert tracking["raw_reports"] > tracking["fused_estimates"]

    def test_fusion_reduces_sink_traffic(self):
        def deliveries(with_fusion):
            sim, sink, sensors, fusion, nodes, target = build_tracking_field(
                with_fusion
            )
            sim.run(until=40.0)
            return nodes[5].stats.events_delivered, sink.track

        fused_msgs, fused_track = deliveries(True)
        raw_msgs, raw_track = deliveries(False)
        assert fused_msgs < raw_msgs
        assert len(fused_track) >= 5  # the track survives fusion
        # Fused confidence can exceed any single sensor's cap.
        assert any(p.confidence > 0.95 for p in fused_track)

    def test_fusion_filter_remove(self):
        sim, sink, sensors, fusion, nodes, target = build_tracking_field(True)
        sim.run(until=10.0)
        fusion.remove()
        assert not fusion._pending
