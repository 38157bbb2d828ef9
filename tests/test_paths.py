"""Tests for causal trace ids and offline path reconstruction."""

import pytest

from repro.analysis.paths import (
    format_loss_table,
    format_path,
    format_route,
    loss_attribution,
    reconstruct_paths,
    trace_timeline,
)
from repro.core.messages import make_data, make_reinforcement
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio import Topology
from repro.sim import TraceRecord, trace_id_of
from repro.testbed import SensorNetwork
from tests.tracing import TraceCollector


class TestTraceIdentity:
    def test_trace_id_is_origin_dot_msgid(self):
        attrs = AttributeVector.builder().actual(Key.TYPE, "x").build()
        message = make_data(attrs, origin=7, exploratory=False)
        assert message.trace_id == f"7.{message.msg_id}"

    def test_forwarding_preserves_identity_and_counts_hops(self):
        attrs = AttributeVector.builder().actual(Key.TYPE, "x").build()
        message = make_data(attrs, origin=7, exploratory=False)
        hop1 = message.forwarded_copy(3)
        hop2 = hop1.forwarded_copy(4)
        assert hop1.trace_id == message.trace_id == hop2.trace_id
        assert (message.hop_count, hop1.hop_count, hop2.hop_count) == (0, 1, 2)

    def test_reinforcement_names_its_trigger(self):
        attrs = AttributeVector.builder().eq(Key.TYPE, "x").build()
        reinf = make_reinforcement(
            positive=True,
            interest_attrs=attrs,
            interest_digest=b"d",
            data_origin=7,
            origin=1,
            next_hop=2,
            parent_trace="7.42",
        )
        assert reinf.parent_trace == "7.42"

    def test_trace_id_of_unwraps_fragments(self):
        attrs = AttributeVector.builder().actual(Key.TYPE, "x").build()
        message = make_data(attrs, origin=7, exploratory=False)

        class FakeFragment:
            def __init__(self, message):
                self.message = message

        assert trace_id_of(FakeFragment(message)) == message.trace_id
        assert trace_id_of(message) == message.trace_id
        assert trace_id_of(object()) is None
        assert trace_id_of(b"raw") is None


def _record(t, cat, node=None, **data):
    return TraceRecord(time=t, category=cat, node=node, data=data)


class TestReconstructSynthetic:
    """Reconstruction over hand-built records: exact control of events."""

    def _three_hop_records(self):
        return [
            _record(0.0, "path.origin", node=3, trace="3.1",
                    msg_type="DATA", parent=None),
            _record(0.1, "diffusion.tx", node=3, trace="3.1", hops=1,
                    nbytes=40),
            _record(0.15, "diffusion.rx", node=2, trace="3.1", hops=1,
                    src=3, nbytes=40),
            _record(0.2, "diffusion.tx", node=2, trace="3.1", hops=2,
                    nbytes=40),
            _record(0.26, "diffusion.rx", node=1, trace="3.1", hops=2,
                    src=2, nbytes=40),
            _record(0.3, "diffusion.tx", node=1, trace="3.1", hops=3,
                    nbytes=40),
            _record(0.37, "diffusion.rx", node=0, trace="3.1", hops=3,
                    src=1, nbytes=40),
            _record(0.37, "app.deliver", node=0, trace="3.1", hops=3),
        ]

    def test_full_three_hop_chain(self):
        paths = reconstruct_paths(self._three_hop_records())
        path = paths["3.1"]
        assert path.delivered
        assert path.origin_node == 3
        (delivery, chain), = path.delivery_routes()
        assert [h.src for h in chain] == [3, 2, 1]
        assert [h.dst for h in chain] == [2, 1, 0]
        assert [round(h.latency, 3) for h in chain] == [0.05, 0.06, 0.07]

    def test_route_formatting(self):
        paths = reconstruct_paths(self._three_hop_records())
        (_, chain), = paths["3.1"].delivery_routes()
        assert format_route(chain) == (
            "3 -(50.0ms)-> 2 -(60.0ms)-> 1 -(70.0ms)-> 0"
        )
        assert "delivered at node 0" in format_path(paths["3.1"])

    def test_drop_attribution_label(self):
        records = [
            _record(0.0, "path.origin", node=3, trace="3.2",
                    msg_type="DATA", parent=None),
            _record(0.1, "diffusion.tx", node=3, trace="3.2", hops=1),
            _record(0.2, "path.drop", node=2, trace="3.2",
                    reason="collision", layer="radio"),
        ]
        paths = reconstruct_paths(records)
        path = paths["3.2"]
        assert not path.delivered
        assert path.loss_label == "collision"
        assert path.unmatched_tx == 1

    def test_last_drop_wins_as_label(self):
        records = [
            _record(0.0, "path.origin", node=3, trace="3.3",
                    msg_type="DATA", parent=None),
            _record(0.1, "path.drop", node=2, trace="3.3",
                    reason="cache-suppression", layer="core"),
            _record(0.5, "path.drop", node=1, trace="3.3",
                    reason="queue-full", layer="mac"),
        ]
        assert reconstruct_paths(records)["3.3"].loss_label == "queue-full"

    def test_no_drop_records_means_in_flight(self):
        records = [
            _record(0.0, "path.origin", node=3, trace="3.4",
                    msg_type="DATA", parent=None),
        ]
        assert reconstruct_paths(records)["3.4"].loss_label == "in-flight"

    def test_loss_attribution_counts_by_label(self):
        records = [
            _record(0.0, "path.origin", node=1, trace="1.1",
                    msg_type="DATA", parent=None),
            _record(0.1, "path.drop", node=1, trace="1.1",
                    reason="no-route", layer="core"),
            _record(0.0, "path.origin", node=1, trace="1.2",
                    msg_type="DATA", parent=None),
            _record(0.1, "path.drop", node=2, trace="1.2",
                    reason="no-route", layer="core"),
            # Interests are not data: excluded from the table.
            _record(0.0, "path.origin", node=1, trace="1.3",
                    msg_type="INTEREST", parent=None),
        ]
        table = loss_attribution(reconstruct_paths(records))
        assert table == {"no-route": 2}
        rendered = format_loss_table(table)
        assert "no-route" in rendered and "100.0%" in rendered

    def test_empty_loss_table_renders(self):
        assert "no undelivered" in format_loss_table({})

    def test_timeline_filters_and_sorts(self):
        records = self._three_hop_records()
        timeline = trace_timeline(reversed(records), "3.1")
        assert [r.category for r in timeline][0] == "path.origin"
        assert len(timeline) == len(records)
        assert trace_timeline(records, "9.9") == []

    def test_records_without_trace_ignored(self):
        records = [
            _record(0.0, "channel.tx", node=1, nbytes=27),
            _record(0.1, "diffusion.tx", node=1, hops=1),
        ]
        assert reconstruct_paths(records) == {}


class TestReconstructLineNetwork:
    """End-to-end: reconstruct real paths on a 3-hop line (satellite)."""

    def _run_line(self, nodes=4, seed=3, until=30.0):
        net = SensorNetwork(Topology.line(nodes, spacing=15.0), seed=seed)
        with TraceCollector(net.trace) as collector:
            sink, source = 0, nodes - 1
            got = []
            sub = AttributeVector.builder().eq(Key.TYPE, "p").build()
            net.api(sink).subscribe(sub, lambda a, m: got.append(m))
            pub = net.api(source).publish(
                AttributeVector.builder().actual(Key.TYPE, "p").build()
            )
            for i in range(6):
                net.sim.schedule(
                    2.0 + 3.0 * i, net.api(source).send, pub,
                    AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
                )
            net.run(until=until)
        return net, got, reconstruct_paths(collector.records)

    def test_three_hop_delivery_reconstructed(self):
        net, got, paths = self._run_line()
        assert got, "sanity: the line should deliver"
        delivered = [
            p for p in paths.values()
            if p.delivered and p.msg_type in ("DATA", "EXPLORATORY_DATA")
        ]
        assert len(delivered) == len(got)
        for path in delivered:
            for delivery, chain in path.delivery_routes():
                # A 4-node line is exactly 3 radio hops end to end.
                assert delivery.hops == 3
                assert len(chain) == 3
                assert [h.src for h in chain] == [3, 2, 1]
                assert [h.dst for h in chain] == [2, 1, 0]
                # Per-hop latencies are positive and sum to the total.
                assert all(h.latency > 0 for h in chain)
                total = delivery.time - chain[0].sent_at
                assert sum(h.latency for h in chain) <= total + 1e-9

    def test_undelivered_data_all_labelled(self):
        _, _, paths = self._run_line()
        for path in paths.values():
            if path.msg_type in ("DATA", "EXPLORATORY_DATA"):
                assert path.delivered or path.loss_label is not None


@pytest.mark.slow
class TestIsiAcceptance:
    """The ISSUE acceptance scenario: the ISI 14-node testbed."""

    def test_reinforced_paths_and_loss_labels(self):
        from repro.testbed import FIG8_SINK, FIG8_SOURCES, isi_testbed_network

        net = isi_testbed_network(seed=1)
        with TraceCollector(net.trace) as collector:
            got = []
            sub = AttributeVector.builder().eq(Key.TYPE, "ev").build()
            net.api(FIG8_SINK).subscribe(sub, lambda a, m: got.append(m))
            for source in FIG8_SOURCES:
                pub = net.api(source).publish(
                    AttributeVector.builder()
                    .actual(Key.TYPE, "ev")
                    .actual(Key.INSTANCE, str(source))
                    .build()
                )

                def tick(api=net.api(source), pub=pub, seq=[0]):
                    api.send(
                        pub,
                        AttributeVector.builder()
                        .actual(Key.SEQUENCE, seq[0]).build(),
                    )
                    seq[0] += 1
                    if net.sim.now < 110.0:
                        net.sim.schedule(6.0, tick)

                net.sim.schedule(3.0, tick)
            net.run(until=120.0)
        assert got, "sanity: the testbed should deliver events"
        paths = reconstruct_paths(collector.records)
        data_paths = [
            p for p in paths.values()
            if p.msg_type in ("DATA", "EXPLORATORY_DATA")
        ]
        delivered = [p for p in data_paths if p.delivered]
        assert len(delivered) == len({
            (m.origin, m.msg_id) for m in got
        })
        for path in delivered:
            for delivery, chain in path.delivery_routes():
                # The full per-hop route must reconstruct: as many hop
                # records as the delivery's hop count, ending at the
                # sink, starting at the source, each with a latency.
                assert len(chain) == delivery.hops
                assert chain[-1].dst == FIG8_SINK
                assert chain[0].src == path.origin_node
                assert all(h.latency > 0 for h in chain)
        # Every undelivered data message carries a loss label.
        for path in data_paths:
            if not path.delivered:
                assert path.loss_label is not None
        table = loss_attribution(paths)
        assert sum(table.values()) == len(data_paths) - len(delivered)
