"""Tests for the metrics registry (repro.sim.metrics)."""

import pytest

from repro.sim import (
    MetricsRegistry,
    NULL_REGISTRY,
    current_registry,
    use_registry,
)
from repro.sim.metrics import _NullInstrument


class TestInstruments:
    def test_counter_increments(self):
        """A counter is read back from its source at snapshot time."""
        registry = MetricsRegistry()
        source = {"tx": 0}
        registry.counter("tx", lambda: source["tx"])
        assert registry.snapshot()["counters"] == {"tx": 0}
        source["tx"] += 1
        source["tx"] += 3
        assert registry.snapshot()["counters"] == {"tx": 4}

    def test_counter_sums_its_readers(self):
        registry = MetricsRegistry()
        registry.counter("tx", lambda: 2)
        registry.counter("tx", lambda: 5)
        registry.counter("tx", lambda: 1, node="a")
        assert registry.snapshot()["counters"] == {"tx": 7, "tx{node=a}": 1}

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_gauge_tracks_extrema(self):
        gauge = MetricsRegistry().gauge("depth")
        assert gauge.min is None and gauge.max is None
        for v in (3, 7, 1, 5):
            gauge.set(v)
        assert gauge.value == 5
        assert gauge.min == 1
        assert gauge.max == 7

    def test_histogram_streaming_quantiles(self):
        hist = MetricsRegistry().histogram("latency")
        # A deterministic non-monotone ordering of 1..1000.
        for i in range(1000):
            hist.observe(float((i * 617) % 1000 + 1))
        assert hist.p50 == pytest.approx(500, rel=0.05)
        assert hist.p95 == pytest.approx(950, rel=0.05)
        assert hist.p99 == pytest.approx(990, rel=0.05)

    def test_quantiles_before_five_samples_use_nearest_rank(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.p50 is None
        hist.observe(10.0)
        assert hist.p50 == 10.0 and hist.p99 == 10.0
        hist.observe(20.0)
        hist.observe(30.0)
        assert hist.p50 == 20.0
        assert hist.p99 == 30.0

    def test_quantiles_are_deterministic(self):
        """Same observation sequence, same estimates — the property
        that lets telemetry stay on during equivalence runs."""
        def run():
            hist = MetricsRegistry().histogram("h")
            for i in range(200):
                hist.observe(float((i * 37) % 100))
            return (hist.p50, hist.p95, hist.p99)

        assert run() == run()


class TestMerge:
    def test_counters_add_and_gauges_fold_extrema(self):
        a = MetricsRegistry()
        a.counter("tx", lambda: 3)
        a.gauge("depth").set(2)
        a.gauge("depth").set(5)
        b = MetricsRegistry()
        b.counter("tx", lambda: 4)
        b.counter("rx", lambda: 1)
        b.gauge("depth").set(1)
        a.merge(b.snapshot())
        assert a.snapshot()["counters"] == {"rx": 1, "tx": 7}
        assert a.gauge("depth").value == 1    # the later observation
        assert a.gauge("depth").min == 1
        assert a.gauge("depth").max == 5

    def test_histograms_combine_moments_and_extrema(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            a.histogram("lat").observe(v)
        for v in (10.0, 20.0):
            b.histogram("lat").observe(v)
        a.merge(b.snapshot())
        hist = a.histogram("lat")
        assert hist.count == 5
        assert hist.total == 36.0
        assert hist.min == 1.0
        assert hist.max == 20.0
        assert hist.p50 is not None

    def test_merge_into_disabled_registry_is_noop(self):
        src = MetricsRegistry()
        src.counter("x", lambda: 1)
        NULL_REGISTRY.merge(src.snapshot())
        assert NULL_REGISTRY.empty

    def test_merged_snapshot_round_trips(self):
        a = MetricsRegistry()
        a.counter("tx", lambda: 2)
        a.histogram("h").observe(1.0)
        fresh = MetricsRegistry()
        fresh.merge(a.snapshot())
        assert fresh.snapshot() == a.snapshot()

    def test_histogram_streams_moments(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.mean == 2.0
        assert hist.min == 1.0
        assert hist.max == 3.0

    def test_instruments_memoized_by_name_and_labels(self):
        registry = MetricsRegistry()
        assert registry.gauge("depth", node="x") is registry.gauge(
            "depth", node="x"
        )
        assert registry.gauge("depth", node="x") is not registry.gauge(
            "depth", node="y"
        )

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        assert registry.histogram("m", x=1, y=2) is registry.histogram(
            "m", y=2, x=1
        )
        registry.counter("c", lambda: 1, x=1, y=2)
        registry.counter("c", lambda: 2, y=2, x=1)
        assert registry.snapshot()["counters"] == {"c{x=1,y=2}": 3}


class TestNullRegistry:
    def test_disabled_registry_hands_out_shared_noop(self):
        a = NULL_REGISTRY.gauge("tx")
        b = NULL_REGISTRY.histogram("depth")
        assert isinstance(a, _NullInstrument)
        assert a is b

    def test_noop_instrument_absorbs_everything(self):
        NULL_REGISTRY.counter("x", lambda: 1)
        instrument = NULL_REGISTRY.gauge("x")
        instrument.set(9)
        instrument.observe(1.0)
        assert instrument.value == 0
        assert NULL_REGISTRY.empty

    def test_registry_truthiness_tracks_enabled(self):
        assert MetricsRegistry()
        assert not NULL_REGISTRY


class TestUseRegistry:
    def test_default_is_null(self):
        assert current_registry() is NULL_REGISTRY

    def test_block_installs_and_restores(self):
        with use_registry() as registry:
            assert current_registry() is registry
            assert registry.enabled
        assert current_registry() is NULL_REGISTRY

    def test_nesting_is_a_stack(self):
        with use_registry() as outer:
            with use_registry() as inner:
                assert current_registry() is inner
            assert current_registry() is outer

    def test_explicit_registry_honoured(self):
        mine = MetricsRegistry()
        with use_registry(mine) as registry:
            assert registry is mine


class TestSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("tx", lambda: 2)
        registry.gauge("depth").set(4)
        registry.histogram("lat").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"tx": 2}
        assert snap["gauges"] == {"depth": {"value": 4, "min": 4, "max": 4}}
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["histograms"]["lat"]["mean"] == 0.5
        assert list(snap) == ["counters", "gauges", "histograms"]

    def test_labels_flattened_into_names(self):
        registry = MetricsRegistry()
        registry.counter("drops", lambda: 1, reason="queue-full")
        assert "drops{reason=queue-full}" in registry.snapshot()["counters"]

    def test_empty_and_format(self):
        registry = MetricsRegistry()
        assert registry.empty
        registry.counter("tx", lambda: 3)
        assert not registry.empty
        assert "tx" in registry.format()
        assert registry.format().split() == ["tx", "3"]


class TestStackIntegration:
    def test_sensor_network_populates_active_registry(self):
        from repro.naming import AttributeVector
        from repro.naming.keys import Key
        from repro.radio import Topology
        from repro.testbed import SensorNetwork

        with use_registry() as registry:
            net = SensorNetwork(Topology.line(3, spacing=15.0), seed=2)
            sub = AttributeVector.builder().eq(Key.TYPE, "m").build()
            got = []
            net.api(0).subscribe(sub, lambda a, m: got.append(m))
            pub = net.api(2).publish(
                AttributeVector.builder().actual(Key.TYPE, "m").build()
            )
            for i in range(4):
                net.sim.schedule(
                    2.0 + 2.0 * i, net.api(2).send, pub,
                    AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
                )
            net.run(until=20.0)
        snap = registry.snapshot()
        assert got, "sanity: data should reach the sink"
        assert snap["counters"]["diffusion.delivered"] == len(got)
        assert snap["counters"]["diffusion.tx.messages"] > 0
        assert snap["counters"]["channel.fragments_sent"] > 0
        assert snap["counters"]["mac.enqueued"] > 0
        assert snap["histograms"]["mac.queue_depth"]["count"] > 0

    def test_per_class_tx_counters_split_the_totals(self):
        from repro.naming import AttributeVector
        from repro.naming.keys import Key
        from repro.radio import Topology
        from repro.testbed import SensorNetwork

        with use_registry() as registry:
            net = SensorNetwork(Topology.line(3, spacing=15.0), seed=2)
            sub = AttributeVector.builder().eq(Key.TYPE, "m").build()
            net.api(0).subscribe(sub, lambda a, m: None)
            pub = net.api(2).publish(
                AttributeVector.builder().actual(Key.TYPE, "m").build()
            )
            for i in range(4):
                net.sim.schedule(
                    2.0 + 2.0 * i, net.api(2).send, pub,
                    AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
                )
            net.run(until=20.0)
        counters = registry.snapshot()["counters"]
        per_class_msgs = {
            name: value
            for name, value in counters.items()
            if name.startswith("diffusion.tx.messages{")
        }
        assert counters["diffusion.tx.messages{class=interest}"] > 0
        assert counters["diffusion.tx.messages{class=data}"] > 0
        # The labeled counters are an exact partition of the totals.
        assert sum(per_class_msgs.values()) == counters["diffusion.tx.messages"]
        per_class_bytes = sum(
            value
            for name, value in counters.items()
            if name.startswith("diffusion.tx.bytes{")
        )
        assert per_class_bytes == counters["diffusion.tx.bytes"]

    def test_without_registry_network_records_nothing(self):
        from repro.radio import Topology
        from repro.testbed import SensorNetwork

        assert current_registry() is NULL_REGISTRY
        net = SensorNetwork(Topology.line(2, spacing=15.0), seed=2)
        net.run(until=1.0)
        assert NULL_REGISTRY.empty
