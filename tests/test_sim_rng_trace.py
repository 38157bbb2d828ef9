"""Tests for RNG stream derivation and the trace bus."""

from repro.sim import SeedSequence, TraceBus, make_rng
from tests.tracing import TraceCollector


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(1, "mac")
        b = make_rng(1, "mac")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_labels_give_independent_streams(self):
        a = make_rng(1, "mac")
        b = make_rng(1, "radio")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = make_rng(1, "mac")
        b = make_rng(2, "mac")
        assert a.random() != b.random()

    def test_seed_sequence_memoizes(self):
        seq = SeedSequence(7)
        assert seq.stream("x") is seq.stream("x")

    def test_seed_sequence_child_independent(self):
        seq = SeedSequence(7)
        child_a = seq.child("node1")
        child_b = seq.child("node2")
        assert child_a.stream("mac").random() != child_b.stream("mac").random()

    def test_int_labels_accepted(self):
        seq = SeedSequence(7)
        assert seq.stream(3) is seq.stream("3")


class TestTraceBus:
    def test_emit_reaches_category_listener(self):
        bus = TraceBus()
        got = []
        bus.subscribe("tx", got.append)
        bus.emit(1.0, "tx", node=3, nbytes=112)
        assert len(got) == 1
        assert got[0].time == 1.0
        assert got[0].node == 3
        assert got[0].data["nbytes"] == 112

    def test_other_categories_not_delivered(self):
        bus = TraceBus()
        got = []
        bus.subscribe("tx", got.append)
        bus.emit(1.0, "rx", node=3)
        assert got == []

    def test_wildcard_listener_sees_everything(self):
        bus = TraceBus()
        got = []
        bus.subscribe("*", got.append)
        bus.emit(1.0, "tx")
        bus.emit(2.0, "rx")
        assert [r.category for r in got] == ["tx", "rx"]

    def test_unsubscribe(self):
        bus = TraceBus()
        got = []
        bus.subscribe("tx", got.append)
        bus.unsubscribe("tx", got.append)
        bus.emit(1.0, "tx")
        assert got == []

    def test_unsubscribe_missing_listener_is_noop(self):
        bus = TraceBus()
        bus.unsubscribe("tx", lambda r: None)

    def test_collector_filters_by_category(self):
        bus = TraceBus()
        collector = TraceCollector(bus)
        bus.emit(1.0, "tx")
        bus.emit(2.0, "rx")
        assert len(collector.records) == 2
        assert len(collector.by_category("tx")) == 1


class TestTraceCollectorLifecycle:
    def test_detach_stops_recording_but_keeps_records(self):
        bus = TraceBus()
        collector = TraceCollector(bus)
        bus.emit(1.0, "tx")
        assert collector.attached
        collector.detach()
        assert not collector.attached
        bus.emit(2.0, "tx")
        assert len(collector.records) == 1

    def test_detach_is_idempotent(self):
        bus = TraceBus()
        collector = TraceCollector(bus)
        collector.detach()
        collector.detach()
        assert not collector.attached

    def test_context_manager_detaches_on_exit(self):
        bus = TraceBus()
        with TraceCollector(bus) as collector:
            bus.emit(1.0, "tx")
            assert collector.attached
        assert not collector.attached
        bus.emit(2.0, "tx")
        assert len(collector.records) == 1

    def test_detached_collector_restores_fast_emit_path(self):
        bus = TraceBus()
        with TraceCollector(bus):
            pass
        # With the only listener gone, emit takes the cheap no-listener
        # exit again: the wildcard's listener list must be empty.
        assert bus._listeners.get("*") == []
