"""Unit tests for the radio fast path: the neighborhood index, the
active-transmitter registry, Channel.detach, and the de-correlated
default MAC rng streams."""

import math

import pytest

from repro import AttributeVector, Key
from repro.link.neighbor import EphemeralIdAllocator
from repro.mac import CsmaMac
from repro.radio import (
    Channel,
    DistancePropagation,
    GilbertElliotLink,
    Modem,
    NeighborhoodIndex,
    ReferenceChannel,
    TablePropagation,
    Topology,
    supports_fast_path,
)
from repro.sim import SeedSequence, Simulator
from repro.testbed import SensorNetwork


def make_net(links, n_nodes=3, channel_cls=Channel):
    sim = Simulator()
    channel = channel_cls(sim, TablePropagation(links), seeds=SeedSequence(1))
    modems = [Modem(sim, channel, node_id=i) for i in range(n_nodes)]
    return sim, channel, modems


class LegacyModel:
    """A propagation model that predates the fast-path protocol."""

    def link_prr(self, src, dst, now):
        return 1.0 if src != dst else 0.0


class TestFastPathSupport:
    def test_builtin_models_support(self):
        topo = Topology.line(2)
        assert supports_fast_path(DistancePropagation(topo))
        assert supports_fast_path(TablePropagation({}))
        assert supports_fast_path(
            GilbertElliotLink(DistancePropagation(topo))
        )

    def test_legacy_model_not_supported(self):
        assert not supports_fast_path(LegacyModel())
        # Gilbert-Elliot delegates its epoch, so wrapping a legacy model
        # is detected as unsupported too.
        assert not supports_fast_path(GilbertElliotLink(LegacyModel()))

    def test_channel_auto_detects(self):
        topo = Topology.line(2)
        assert type(SensorNetwork(topo).channel) is Channel
        legacy = SensorNetwork(topo, propagation=LegacyModel())
        assert type(legacy.channel) is ReferenceChannel

    def test_forcing_index_on_legacy_model_rejected(self):
        with pytest.raises(ValueError, match="ReferenceChannel"):
            Channel(Simulator(), LegacyModel())

    def test_legacy_model_still_delivers(self):
        net = SensorNetwork(Topology.line(2), propagation=LegacyModel())
        got = []
        net.api(0).subscribe(
            AttributeVector.builder().eq(Key.TYPE, "legacy").build(),
            lambda attrs, msg: got.append(msg),
        )
        pub = net.api(1).publish(
            AttributeVector.builder().actual(Key.TYPE, "legacy").build()
        )
        net.sim.schedule(
            2.0, net.api(1).send, pub,
            AttributeVector.builder().actual(Key.SEQUENCE, 0).build(),
        )
        net.run(until=10.0)
        assert len(got) == 1


class TestNeighborhoodIndex:
    def test_audible_and_carrier_sets(self):
        prop = TablePropagation({
            (0, 1): 1.0,
            (0, 2): 0.02,   # audible but below the carrier threshold
            (1, 0): 0.5,
        })
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        for node in (0, 1, 2):
            index.add_node(node)
        assert index.audible_from(0) == [1, 2]
        assert index.carrier_candidates(0) == {1}
        assert index.audible_from(2) == []

    def test_sets_follow_attach_order(self):
        prop = TablePropagation({(0, 2): 1.0, (0, 1): 1.0})
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        for node in (2, 0, 1):  # deliberately not sorted
            index.add_node(node)
        assert index.audible_from(0) == [2, 1]

    def test_epoch_invalidation_on_move(self):
        topo = Topology()
        topo.add_node(0, 0.0, 0.0)
        topo.add_node(1, 10.0, 0.0)
        prop = DistancePropagation(topo, asymmetry=0.0)
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        index.add_node(0)
        index.add_node(1)
        assert index.audible_from(0) == [1]
        assert index.link_prr(0, 1, 0.0) == 1.0
        topo.move_node(1, 500.0, 0.0)
        assert index.audible_from(0) == []
        assert index.link_prr(0, 1, 1.0) == 0.0
        assert index.rebuilds == 1

    def test_table_edit_bumps_epoch(self):
        prop = TablePropagation({(0, 1): 1.0})
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        index.add_node(0)
        index.add_node(1)
        assert index.audible_from(0) == [1]
        prop.remove_link(0, 1)
        assert index.audible_from(0) == []

    def test_memo_hits_within_static_epoch(self):
        prop = TablePropagation({(0, 1): 0.8})
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        index.add_node(0)
        index.add_node(1)
        for _ in range(5):
            assert index.link_prr(0, 1, float(_)) == 0.8
        assert index.memo_misses == 1
        assert index.memo_hits == 4

    def test_gilbert_window_expires_per_link(self):
        topo = Topology.line(2, spacing=5.0)
        ge = GilbertElliotLink(
            DistancePropagation(topo, asymmetry=0.0),
            mean_good=1.0, mean_bad=1.0, bad_scale=0.5, seed=3,
        )
        index = NeighborhoodIndex(ge, carrier_threshold=0.05)
        index.add_node(0)
        index.add_node(1)
        # Sample both the index and a fresh reference model over time:
        # values must agree even though the index only recomputes when a
        # link's own window lapses.
        reference = GilbertElliotLink(
            DistancePropagation(Topology.line(2, spacing=5.0), asymmetry=0.0),
            mean_good=1.0, mean_bad=1.0, bad_scale=0.5, seed=3,
        )
        times = [i * 0.25 for i in range(80)]
        got = [index.link_prr(0, 1, t) for t in times]
        want = [reference.link_prr(0, 1, t) for t in times]
        assert got == want
        assert len(set(got)) == 2          # both states were visited
        assert index.memo_hits > 0         # and the memo did real work
        assert index.memo_misses < len(times)

    def test_window_value_matches_plain_query(self):
        topo = Topology.line(3, spacing=12.0)
        prop = DistancePropagation(topo, seed=5)
        prr, expires = prop.link_prr_window(0, 1, 0.0)
        assert prr == prop.link_prr(0, 1, 0.0)
        assert expires == math.inf


class TestActiveRegistry:
    def test_carrier_checks_scale_with_transmitters(self):
        links = {(i, 9): 1.0 for i in range(9)}
        sim, channel, modems = make_net(links, n_nodes=10)
        channel.carrier_busy(9)
        assert channel.carrier_checks == 0  # nobody on the air
        modems[0].transmit_fragment("a", 27)
        before = channel.carrier_checks
        channel.carrier_busy(9)
        # One active transmitter -> exactly one link examined, despite
        # ten attached modems.
        assert channel.carrier_checks == before + 1

    def test_reference_scan_counts_all_modems(self):
        links = {(i, 9): 1.0 for i in range(9)}
        sim, channel, modems = make_net(
            links, n_nodes=10, channel_cls=ReferenceChannel
        )
        channel.carrier_busy(9)
        assert channel.carrier_checks == 9

    def test_registry_drains_after_transmission(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        modems[0].transmit_fragment("a", 27)
        assert channel.carrier_busy(1)
        sim.run()
        assert not channel.carrier_busy(1)
        assert channel._active == {}


class TestDetach:
    def test_detach_removes_from_sets_and_delivery(self):
        sim, channel, modems = make_net({(0, 1): 1.0, (0, 2): 1.0})
        assert channel.index.audible_from(0) == [1, 2]
        channel.detach(1)
        assert channel.index.audible_from(0) == [2]
        got = []
        modems[2].receive_callback = lambda *args: got.append(args)
        modems[1].receive_callback = lambda *args: got.append(("dead", args))
        modems[0].transmit_fragment("x", 10)
        sim.run()
        assert got == [("x", 0, 10, None)]
        assert channel.fragments_delivered == 1

    def test_detach_voids_pending_receptions(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        modems[0].transmit_fragment("x", 10)
        channel.detach(1)  # mid-flight
        sim.run()
        assert channel.fragments_delivered == 0
        assert channel.fragments_lost == 0
        assert 1 not in channel._receiving

    def test_detach_unknown_rejected(self):
        sim, channel, modems = make_net({})
        with pytest.raises(ValueError):
            channel.detach(99)

    def test_reattach_after_detach(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        modem = channel.detach(1)
        channel.attach(modem)
        got = []
        modem.receive_callback = lambda *args: got.append(args)
        modems[0].transmit_fragment("x", 10)
        sim.run()
        assert len(got) == 1

    def test_detach_clears_active_registry(self):
        sim, channel, modems = make_net({(0, 1): 1.0, (0, 2): 1.0})
        modems[0].transmit_fragment("x", 10)
        channel.detach(0)
        assert not channel.carrier_busy(1)
        sim.run()  # the modem's tx-done event must not blow up


class TestDefaultRngStreams:
    def test_csma_default_backoffs_decorrelated(self):
        sim, channel, modems = make_net({}, n_nodes=2)
        macs = [CsmaMac(sim, modem) for modem in modems]
        draws_a = [macs[0].rng.random() for _ in range(8)]
        draws_b = [macs[1].rng.random() for _ in range(8)]
        assert draws_a != draws_b

    def test_csma_default_deterministic_per_node(self):
        first = make_net({}, n_nodes=1)
        second = make_net({}, n_nodes=1)
        mac_a = CsmaMac(first[0], first[2][0])
        mac_b = CsmaMac(second[0], second[2][0])
        assert [mac_a.rng.random() for _ in range(4)] == [
            mac_b.rng.random() for _ in range(4)
        ]

    def test_ephemeral_allocator_defaults_decorrelated(self):
        alloc_a = EphemeralIdAllocator()
        alloc_b = EphemeralIdAllocator()
        ids_a = [alloc_a.allocate() for _ in range(10)]
        ids_b = [alloc_b.allocate() for _ in range(10)]
        assert ids_a != ids_b
