"""Tests for the sensor applications over the full simulated stack."""

import pytest

from repro.apps import (
    DetectionSource,
    LightSensor,
    NestedQueryExperiment,
    SurveillanceExperiment,
    SynchronizedEventClock,
)
from repro.apps.sensors import AudioEmitter
from repro.core import DiffusionConfig, MessageType
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio import Topology
from repro.testbed import (
    FIG8_SINK,
    FIG8_SOURCES,
    FIG9_AUDIO,
    FIG9_LIGHTS,
    FIG9_USER,
    SensorNetwork,
    isi_testbed_network,
)


class TestSynchronizedEventClock:
    def test_sequence_advances_with_interval(self):
        clock = SynchronizedEventClock()
        assert clock.sequence_at(0.0) == 0
        assert clock.sequence_at(5.9) == 0
        assert clock.sequence_at(6.0) == 1
        assert clock.sequence_at(61.0) == 10

    def test_next_event_time(self):
        clock = SynchronizedEventClock()
        assert clock.next_event_time(0.0) == 6.0
        assert clock.next_event_time(6.0) == 12.0


class TestDetectionSource:
    def test_events_are_paper_sized(self):
        net = SensorNetwork(Topology.line(2, spacing=10.0))
        sizes = []
        net.trace.subscribe(
            "diffusion.tx",
            lambda r: sizes.append(r.data["nbytes"])
            if r.data["msg_type"] in ("DATA", "EXPLORATORY_DATA")
            else None,
        )
        sink_sub = AttributeVector.builder().eq(Key.TYPE, "surveillance").build()
        net.api(0).subscribe(sink_sub, lambda a, m: None)
        clock = SynchronizedEventClock()
        DetectionSource(net.api(1), clock)
        net.run(until=30.0)
        assert sizes
        assert all(s == 112 for s in sizes)

    def test_sources_share_sequence_numbers(self):
        net = SensorNetwork(Topology.line(3, spacing=10.0))
        seqs = {1: [], 2: []}
        sink_sub = AttributeVector.builder().eq(Key.TYPE, "surveillance").build()

        def on_data(attrs, msg):
            seqs[msg.data_origin].append(attrs.value_of(Key.SEQUENCE))

        net.api(0).subscribe(sink_sub, on_data)
        clock = SynchronizedEventClock()
        DetectionSource(net.api(1), clock)
        DetectionSource(net.api(2), clock)
        net.run(until=30.0)
        assert set(seqs[1]) & set(seqs[2])  # same event numbering


class TestSurveillanceExperiment:
    def test_suppression_reduces_bytes_multi_source(self):
        results = {}
        for suppression in (True, False):
            values = []
            for seed in (11, 12):
                net = isi_testbed_network(seed=seed)
                exp = SurveillanceExperiment(
                    net, FIG8_SINK, FIG8_SOURCES, suppression=suppression
                )
                values.append(exp.run(duration=400.0).bytes_per_event)
            results[suppression] = sum(values) / len(values)
        assert results[True] < results[False]

    def test_sink_receives_majority_of_events_single_source(self):
        net = isi_testbed_network(seed=11)
        exp = SurveillanceExperiment(
            net, FIG8_SINK, FIG8_SOURCES[:1], suppression=True
        )
        result = exp.run(duration=400.0)
        assert result.delivery_ratio > 0.4
        assert result.distinct_events_received <= result.events_generated

    def test_result_units(self):
        net = isi_testbed_network(seed=11)
        exp = SurveillanceExperiment(net, FIG8_SINK, FIG8_SOURCES[:1])
        result = exp.run(duration=200.0)
        assert result.bytes_per_event > 0
        assert result.sources == 1
        assert result.duration == 200.0

    def test_zero_delivery_gives_infinite_bytes_per_event(self):
        from repro.apps.surveillance import SurveillanceResult

        r = SurveillanceResult(
            sources=1, suppression=True, duration=1.0,
            distinct_events_received=0, total_receptions=0,
            events_generated=10, diffusion_bytes_sent=100,
            diffusion_messages_sent=10,
        )
        assert r.bytes_per_event == float("inf")
        assert r.delivery_ratio == 0.0


class TestNestedQueryExperiment:
    def test_nested_beats_flat_at_scale(self):
        """The paper's core Figure 9 claim, at 4 sensors."""
        def mean_delivery(nested):
            values = []
            for seed in (21, 22):
                net = isi_testbed_network(seed=seed)
                exp = NestedQueryExperiment(
                    net, FIG9_USER, FIG9_AUDIO, FIG9_LIGHTS, nested=nested
                )
                values.append(exp.run(duration=600.0).delivery_percentage)
            return sum(values) / len(values)

        assert mean_delivery(True) > mean_delivery(False)

    def test_nested_localizes_light_traffic(self):
        """In nested mode light data stops at the audio node: nodes on
        the user side of the network carry (almost) no light bytes."""
        net = isi_testbed_network(seed=21)
        exp = NestedQueryExperiment(
            net, FIG9_USER, FIG9_AUDIO, FIG9_LIGHTS[:2], nested=True
        )
        exp.run(duration=300.0)
        # Node 18 is far on the sink side; in nested mode it should
        # forward little beyond interest floods.
        far_node = net.node(18)
        data_msgs = (
            far_node.stats.messages_by_type[MessageType.DATA]
            + far_node.stats.messages_by_type[MessageType.EXPLORATORY_DATA]
        )
        # Light reports alone would be ~300; only sporadic audio floods
        # and stray light exploratory floods pass this far.
        assert data_msgs < 100

    def test_possible_events_counts_transitions(self):
        net = isi_testbed_network(seed=21)
        exp = NestedQueryExperiment(
            net, FIG9_USER, FIG9_AUDIO, FIG9_LIGHTS[:3], nested=True
        )
        assert exp.possible_events(600.0) == 30  # 10 transitions x 3 lights

    def test_audio_emitter_message_size(self):
        net = SensorNetwork(Topology.line(2, spacing=10.0))
        sizes = []
        net.trace.subscribe(
            "diffusion.tx",
            lambda r: sizes.append(r.data["nbytes"])
            if r.data["msg_type"] in ("DATA", "EXPLORATORY_DATA")
            else None,
        )
        sub = AttributeVector.builder().eq(Key.TYPE, "audio").build()
        net.api(0).subscribe(sub, lambda a, m: None)
        emitter = AudioEmitter(net.api(1))
        net.sim.schedule(1.0, emitter.emit, "light-9", 1)
        net.run(until=5.0)
        assert sizes == [100]


class TestLightSensor:
    def test_state_epoch_toggles_every_minute(self):
        net = SensorNetwork(Topology.line(2, spacing=10.0))
        light = LightSensor(net.api(1))
        assert light.state_epoch(59.0) == 0
        assert light.state_epoch(60.0) == 1
        assert light.state(0.0) != light.state(60.0)
        assert light.state(0.0) == light.state(120.0)

    def test_reports_every_two_seconds(self):
        net = SensorNetwork(Topology.line(2, spacing=10.0))
        sub = AttributeVector.builder().eq(Key.TYPE, "light").build()
        reports = []
        net.api(0).subscribe(sub, lambda a, m: reports.append(a))
        LightSensor(net.api(1))
        net.run(until=21.0)
        # ~10 reports in 20 s, minus radio losses.
        assert len(reports) >= 7
        epochs = {a.value_of(Key.TIMESTAMP) for a in reports}
        assert epochs == {0}


class TestLazyNames:
    """``repro.apps`` resolves the nested-query, fusion and time-sync
    names on first access (tests/test_import_floor.py checks that a run
    not using them leaves their modules unloaded)."""

    def test_every_exported_name_resolves_to_its_module(self):
        import importlib

        import repro.apps as apps

        for name in apps.__all__:
            value = getattr(apps, name)
            module = apps._LAZY.get(name)
            if module is not None:
                assert value is getattr(importlib.import_module(module), name)

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro.apps as apps

        with pytest.raises(AttributeError, match="NoSuchApp"):
            apps.NoSuchApp
