"""Tests for micro-diffusion and the tiered gateway."""

import pytest

from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
from repro.micro import (
    MICRO_DATA_BYTES,
    MicroDiffusionNode,
    MicroGateway,
    MicroMessage,
    MicroMessageKind,
    TagRegistry,
    state_bytes,
)
from repro.micro import microdiffusion
from repro.micro.footprint import footprint_report
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.sim import Simulator
from repro.testbed import IdealNetwork

PHOTO_TAG = 17


def build_micro_net(n, pairs):
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.005)
    motes = {}
    for i in range(n):
        transport = net.add_node(i)
        motes[i] = MicroDiffusionNode(sim, i, transport)
    for a, b in pairs:
        net.connect(a, b)
    return sim, net, motes


class TestMicroMessage:
    def test_nbytes_small(self):
        msg = MicroMessage(MicroMessageKind.DATA, tag=1, origin=2, seq=3,
                           payload=b"\x01\x02")
        assert msg.nbytes == MicroMessage.HEADER_BYTES + 2
        assert msg.nbytes <= 30  # fits mote radio packets

    def test_tag_bounds(self):
        with pytest.raises(ValueError):
            MicroMessage(MicroMessageKind.DATA, tag=2**16, origin=0, seq=0)

    def test_cache_key_two_bytes(self):
        msg = MicroMessage(MicroMessageKind.DATA, tag=1, origin=0xAB, seq=0xCD)
        assert 0 <= msg.cache_key() < 2**16


class TestMicroProtocol:
    def test_interest_sets_gradients_and_data_flows(self):
        sim, net, motes = build_micro_net(4, [(0, 1), (1, 2), (2, 3)])
        received = []
        motes[0].subscribe(PHOTO_TAG, received.append)
        sim.schedule(1.0, motes[3].send, PHOTO_TAG, b"\x2A")
        sim.run(until=5.0)
        assert len(received) == 1
        assert received[0].payload == b"\x2A"
        assert motes[3].active_gradients(PHOTO_TAG) == [2]

    def test_data_without_interest_goes_nowhere(self):
        sim, net, motes = build_micro_net(3, [(0, 1), (1, 2)])
        motes[2].send(PHOTO_TAG, b"\x01")
        sim.run(until=2.0)
        assert motes[1].stats_tx_messages == 0

    def test_duplicate_suppression_on_ring(self):
        sim, net, motes = build_micro_net(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        received = []
        motes[0].subscribe(PHOTO_TAG, received.append)
        sim.schedule(1.0, motes[2].send, PHOTO_TAG, b"\x01")
        sim.run(until=10.0)
        assert len(received) == 1

    def test_gradient_table_bounded_with_eviction(self, monkeypatch):
        monkeypatch.setattr(microdiffusion, "MAX_GRADIENTS", 2)
        sim, net, motes = build_micro_net(1, [])
        mote = motes[0]
        mote._update_gradient(1, neighbor=10)
        mote._update_gradient(2, neighbor=11)
        mote._update_gradient(3, neighbor=12)
        assert len(mote.gradients) == 2
        assert mote.stats_gradient_evictions == 1

    def test_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(microdiffusion, "CACHE_PACKETS", 3)
        sim, net, motes = build_micro_net(1, [])
        mote = motes[0]
        for seq in range(10):
            mote._note_seen(
                MicroMessage(MicroMessageKind.DATA, tag=1, origin=0, seq=seq)
            )
        assert len(mote.cache) == 3

    def test_unsubscribe_stops_interest_refresh(self):
        sim, net, motes = build_micro_net(2, [(0, 1)])
        motes[0].subscribe(PHOTO_TAG, lambda m: None)
        sim.run(until=1.0)
        motes[0].unsubscribe(PHOTO_TAG)
        before = motes[0].stats_tx_messages
        sim.run(until=200.0)
        assert motes[0].stats_tx_messages == before

    def test_interest_refresh_periodic(self, monkeypatch):
        monkeypatch.setattr(microdiffusion, "INTEREST_INTERVAL", 10.0)
        sim, net, motes = build_micro_net(2, [(0, 1)])
        motes[0].subscribe(PHOTO_TAG, lambda m: None)
        sim.run(until=35.0)
        # Interests at t=0, 10, 20, 30.
        assert motes[0].stats_tx_messages == 4

    def test_multihop_forwarding_unicast_single_gradient(self):
        sim, net, motes = build_micro_net(3, [(0, 1), (1, 2)])
        received = []
        motes[0].subscribe(PHOTO_TAG, received.append)
        sim.schedule(1.0, motes[2].send, PHOTO_TAG, b"")
        sim.run(until=5.0)
        assert len(received) == 1


class TestFootprint:
    def test_default_config_fits_paper_data_budget(self):
        assert state_bytes() <= MICRO_DATA_BYTES

    def test_default_budget_value(self):
        # 5 gradients * 6 + 10 cache * 2 + 1 sub * 4 + 12 = 66 bytes.
        assert state_bytes() == 66

    def test_live_node_within_budget(self):
        sim, net, motes = build_micro_net(1, [])
        motes[0].subscribe(PHOTO_TAG, lambda m: None)
        assert len(motes[0].subscriptions) == 1  # what state_bytes models
        assert state_bytes() <= MICRO_DATA_BYTES

    def test_footprint_report(self):
        report = footprint_report()
        assert report["within_paper_budget"]
        assert report["data_reduction_vs_full"] > 50  # 8KB vs tens of bytes

    def test_bigger_config_exceeds_budget(self, monkeypatch):
        monkeypatch.setattr(microdiffusion, "MAX_GRADIENTS", 50)
        monkeypatch.setattr(microdiffusion, "CACHE_PACKETS", 100)
        assert state_bytes() > MICRO_DATA_BYTES


class TestGateway:
    def _build_tiered(self):
        """Full tier: sink 0 - gateway 1; mote tier: gateway 1 - motes 2,3."""
        sim = Simulator()
        full_net = IdealNetwork(sim, delay=0.01)
        mote_net = IdealNetwork(sim, delay=0.005)
        # Full-diffusion side.
        t0 = full_net.add_node(0)
        t1 = full_net.add_node(1)
        full_net.connect(0, 1)
        node0 = DiffusionNode(sim, 0, t0,
                              config=DiffusionConfig(reinforcement_jitter=0.05))
        node1 = DiffusionNode(sim, 1, t1,
                              config=DiffusionConfig(reinforcement_jitter=0.05))
        api0, api1 = DiffusionRouting(node0), DiffusionRouting(node1)
        # Mote side: gateway's mote interface is id 1 on the mote net.
        m1 = mote_net.add_node(1)
        m2 = mote_net.add_node(2)
        m3 = mote_net.add_node(3)
        mote_net.connect(1, 2)
        mote_net.connect(2, 3)
        micro1 = MicroDiffusionNode(sim, 1, m1)
        mote2 = MicroDiffusionNode(sim, 2, m2)
        mote3 = MicroDiffusionNode(sim, 3, m3)
        registry = TagRegistry()
        registry.register(
            PHOTO_TAG,
            interest_attrs=AttributeVector.builder().eq(Key.TYPE, "photo").build(),
            data_attrs=AttributeVector.builder().actual(Key.TYPE, "photo").build(),
        )
        gateway = MicroGateway(api1, micro1, registry)
        return sim, api0, gateway, mote2, mote3

    def test_interest_bridged_down_and_data_up(self):
        sim, api0, gateway, mote2, mote3 = self._build_tiered()
        received = []
        sub = AttributeVector.builder().eq(Key.TYPE, "photo").build()
        api0.subscribe(sub, lambda attrs, msg: received.append(attrs))
        # Give the interest time to flood down into the mote tier.
        sim.schedule(2.0, mote3.send, PHOTO_TAG, b"\x10")
        sim.run(until=10.0)
        assert gateway.interests_bridged == 1
        assert gateway.data_bridged == 1
        assert len(received) == 1
        assert received[0].value_of(Key.INSTANCE) == "mote-3"

    def test_unrelated_interest_not_bridged(self):
        sim, api0, gateway, mote2, mote3 = self._build_tiered()
        sub = AttributeVector.builder().eq(Key.TYPE, "seismic").build()
        api0.subscribe(sub, lambda attrs, msg: None)
        sim.run(until=5.0)
        assert gateway.interests_bridged == 0

    def test_registry_rejects_duplicate_tags(self):
        registry = TagRegistry()
        attrs = AttributeVector.builder().eq(Key.TYPE, "photo").build()
        data = AttributeVector.builder().actual(Key.TYPE, "photo").build()
        registry.register(1, attrs, data)
        with pytest.raises(ValueError):
            registry.register(1, attrs, data)

    def test_registry_tag_lookup_by_interest(self):
        registry = TagRegistry()
        registry.register(
            5,
            interest_attrs=AttributeVector.builder().eq(Key.TYPE, "photo").build(),
            data_attrs=AttributeVector.builder().actual(Key.TYPE, "photo").build(),
        )
        probe = AttributeVector.builder().eq(Key.TYPE, "photo").build()
        assert registry.tag_for_interest(probe) == 5
        other = AttributeVector.builder().eq(Key.TYPE, "audio").build()
        assert registry.tag_for_interest(other) is None


class TestMicroFilters:
    """Section 4.3: micro-diffusion supports 'only limited filters' —
    one per-tag hook that can absorb or rewrite data."""

    def test_filter_sees_and_passes_data(self):
        sim, net, motes = build_micro_net(3, [(0, 1), (1, 2)])
        seen = []
        motes[1].add_filter(PHOTO_TAG, lambda m: (seen.append(m), m)[1])
        received = []
        motes[0].subscribe(PHOTO_TAG, received.append)
        sim.schedule(1.0, motes[2].send, PHOTO_TAG, b"\x01")
        sim.run(until=5.0)
        assert len(seen) == 1
        assert len(received) == 1

    def test_filter_can_absorb(self):
        sim, net, motes = build_micro_net(3, [(0, 1), (1, 2)])
        motes[1].add_filter(PHOTO_TAG, lambda m: None)
        received = []
        motes[0].subscribe(PHOTO_TAG, received.append)
        sim.schedule(1.0, motes[2].send, PHOTO_TAG, b"\x01")
        sim.run(until=5.0)
        assert received == []

    def test_filter_can_rewrite_payload(self):
        from dataclasses import replace as dc_replace

        sim, net, motes = build_micro_net(3, [(0, 1), (1, 2)])
        motes[1].add_filter(
            PHOTO_TAG, lambda m: dc_replace(m, payload=b"\xFF")
        )
        received = []
        motes[0].subscribe(PHOTO_TAG, received.append)
        sim.schedule(1.0, motes[2].send, PHOTO_TAG, b"\x01")
        sim.run(until=5.0)
        assert received[0].payload == b"\xFF"

    def test_one_filter_per_tag(self):
        sim, net, motes = build_micro_net(1, [])
        motes[0].add_filter(PHOTO_TAG, lambda m: m)
        with pytest.raises(ValueError):
            motes[0].add_filter(PHOTO_TAG, lambda m: m)
        assert motes[0].remove_filter(PHOTO_TAG)
        assert not motes[0].remove_filter(PHOTO_TAG)

    def test_mote_side_suppression_filter(self):
        """A dedup-by-payload filter on the mote tier — the in-network
        aggregation use case the paper plans for motes."""
        sim, net, motes = build_micro_net(4, [(0, 1), (1, 2), (1, 3)])
        seen_payloads = set()

        def suppress(message):
            if message.payload in seen_payloads:
                return None
            seen_payloads.add(message.payload)
            return message

        motes[1].add_filter(PHOTO_TAG, suppress)
        received = []
        motes[0].subscribe(PHOTO_TAG, received.append)
        sim.schedule(1.0, motes[2].send, PHOTO_TAG, b"\x2A")
        sim.schedule(1.5, motes[3].send, PHOTO_TAG, b"\x2A")  # duplicate
        sim.run(until=5.0)
        assert len(received) == 1


class TestCommandBridging:
    """Section 4.3: 'Second-tier nodes will be controlled and their
    filters programmed from these more capable nodes.'"""

    COMMAND_TAG = 99

    def _build_with_commands(self):
        sim = Simulator()
        full_net = IdealNetwork(sim, delay=0.01)
        mote_net = IdealNetwork(sim, delay=0.005)
        t0 = full_net.add_node(0)
        t1 = full_net.add_node(1)
        full_net.connect(0, 1)
        config = DiffusionConfig(reinforcement_jitter=0.05)
        api0 = DiffusionRouting(DiffusionNode(sim, 0, t0, config=config))
        api1 = DiffusionRouting(DiffusionNode(sim, 1, t1, config=config))
        gw_micro = MicroDiffusionNode(sim, 1, mote_net.add_node(1))
        mote2 = MicroDiffusionNode(sim, 2, mote_net.add_node(2))
        mote_net.connect(1, 2)
        registry = TagRegistry()
        registry.register_command(
            self.COMMAND_TAG,
            AttributeVector.builder().eq(Key.TYPE, "mote-cmd").build(),
        )
        gateway = MicroGateway(api1, gw_micro, registry)
        return sim, api0, gateway, mote2

    def test_full_tier_command_reaches_mote(self):
        sim, api0, gateway, mote2 = self._build_with_commands()
        commands = []
        mote2.subscribe(self.COMMAND_TAG, commands.append)
        pub = api0.publish(
            AttributeVector.builder().actual(Key.TYPE, "mote-cmd").build()
        )
        from repro.naming import Attribute, Operator

        cmd_attrs = AttributeVector.builder().actual(
            Key.SEQUENCE, 1
        ).build().with_attribute(
            Attribute.blob(Key.PAYLOAD, Operator.IS, b"\x05\x01")
        )
        sim.schedule(2.0, api0.send, pub, cmd_attrs)
        sim.run(until=10.0)
        assert gateway.commands_bridged == 1
        assert len(commands) == 1
        assert commands[0].payload == b"\x05\x01"

    def test_duplicate_command_tag_rejected(self):
        registry = TagRegistry()
        attrs = AttributeVector.builder().eq(Key.TYPE, "mote-cmd").build()
        registry.register_command(1, attrs)
        with pytest.raises(ValueError):
            registry.register_command(1, attrs)

    def test_command_tag_lookup(self):
        registry = TagRegistry()
        registry.register_command(
            7, AttributeVector.builder().eq(Key.TYPE, "mote-cmd").build()
        )
        matching = AttributeVector.builder().actual(Key.TYPE, "mote-cmd").build()
        other = AttributeVector.builder().actual(Key.TYPE, "else").build()
        assert registry.command_tag_for(matching) == 7
        assert registry.command_tag_for(other) is None
