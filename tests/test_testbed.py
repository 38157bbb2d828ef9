"""Tests for network builders and the ISI testbed model."""

import pytest

from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting, MessageType
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio import DistancePropagation, Topology
from repro.sim import Simulator
from repro.testbed import (
    FIG8_SINK,
    FIG8_SOURCES,
    FIG9_AUDIO,
    FIG9_LIGHTS,
    FIG9_USER,
    ISI_NODE_IDS,
    ISI_TENTH_FLOOR,
    IdealNetwork,
    SensorNetwork,
    isi_testbed_network,
    isi_testbed_topology,
)
from repro.testbed.isi import ISI_FULL_RANGE, ISI_MAX_RANGE


class TestIdealNetwork:
    def test_broadcast_reaches_neighbors_only(self):
        sim = Simulator()
        net = IdealNetwork(sim)
        transports = {i: net.add_node(i) for i in range(3)}
        net.connect(0, 1)
        got = {i: [] for i in range(3)}
        for i in (1, 2):
            transports[i].deliver_callback = (
                lambda msg, src, nb, i=i: got[i].append(msg)
            )
        transports[0].send_message("x", 10, None)
        sim.run()
        assert got[1] == ["x"]
        assert got[2] == []

    def test_unicast_requires_link(self):
        sim = Simulator()
        net = IdealNetwork(sim)
        t0, t1 = net.add_node(0), net.add_node(1)
        got = []
        t1.deliver_callback = lambda msg, src, nb: got.append(msg)
        t0.send_message("x", 10, 1)  # no link yet
        sim.run()
        assert got == []
        net.connect(0, 1)
        t0.send_message("y", 10, 1)
        sim.run()
        assert got == ["y"]

    def test_loss_rate_applies(self):
        sim = Simulator()
        net = IdealNetwork(sim, loss=0.5, seed=3)
        t0, t1 = net.add_node(0), net.add_node(1)
        net.connect(0, 1)
        got = []
        t1.deliver_callback = lambda msg, src, nb: got.append(msg)
        for i in range(200):
            sim.schedule(i * 0.1, t0.send_message, i, 10, None)
        sim.run()
        assert 60 < len(got) < 140

    def test_duplicate_node_rejected(self):
        net = IdealNetwork(Simulator())
        net.add_node(1)
        with pytest.raises(ValueError):
            net.add_node(1)

    def test_invalid_loss(self):
        with pytest.raises(ValueError):
            IdealNetwork(Simulator(), loss=1.0)

    def test_disconnect(self):
        sim = Simulator()
        net = IdealNetwork(sim)
        t0, t1 = net.add_node(0), net.add_node(1)
        net.connect(0, 1)
        net.disconnect(0, 1)
        got = []
        t1.deliver_callback = lambda msg, src, nb: got.append(msg)
        t0.send_message("x", 10, None)
        sim.run()
        assert got == []

    def test_transport_counters(self):
        sim = Simulator()
        net = IdealNetwork(sim)
        t0 = net.add_node(0)
        t0.send_message("x", 42, None)
        assert t0.bytes_sent == 42
        assert t0.messages_sent == 1


class TestSensorNetwork:
    def test_builds_full_stack_per_node(self):
        net = SensorNetwork(Topology.line(3, spacing=10.0))
        assert net.node_ids() == [0, 1, 2]
        stack = net.stack(1)
        assert stack.modem.node_id == 1
        assert stack.diffusion.node_id == 1
        assert isinstance(stack.api, DiffusionRouting)

    def test_deterministic_given_seed(self):
        def run(seed):
            net = SensorNetwork(Topology.line(4, spacing=15.0), seed=seed)
            received = []
            sub = AttributeVector.builder().eq(Key.TYPE, "t").build()
            net.api(0).subscribe(sub, lambda a, m: received.append(net.sim.now))
            pub = net.api(3).publish(
                AttributeVector.builder().actual(Key.TYPE, "t").build()
            )
            for i in range(5):
                net.sim.schedule(
                    2.0 + i, net.api(3).send, pub,
                    AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
                )
            net.run(until=20.0)
            return received

        assert run(5) == run(5)
        # A different seed gives (almost surely) different timings.
        assert run(5) != run(6) or len(run(5)) != len(run(6))

    def test_fail_node_goes_silent(self):
        # Spacing chosen so 0 and 2 are far out of range of each other
        # and node 1 is the only possible relay.
        net = SensorNetwork(Topology.line(3, spacing=18.0))
        net.fail_node(1)
        sub = AttributeVector.builder().eq(Key.TYPE, "t").build()
        received = []
        net.api(0).subscribe(sub, lambda a, m: received.append(a))
        pub = net.api(2).publish(
            AttributeVector.builder().actual(Key.TYPE, "t").build()
        )
        net.sim.schedule(2.0, net.api(2).send, pub,
                         AttributeVector.builder().actual(Key.SEQUENCE, 0).build())
        net.run(until=10.0)
        assert received == []  # the only relay is dead

    def test_traffic_accounting(self):
        net = SensorNetwork(Topology.line(2, spacing=10.0))
        sub = AttributeVector.builder().eq(Key.TYPE, "t").build()
        net.api(0).subscribe(sub, lambda a, m: None)
        net.run(until=5.0)
        assert net.total_diffusion_messages_sent() >= 2  # interest x2 nodes
        assert net.total_diffusion_bytes_sent() > 0
        # The radio adds per-fragment overhead on top of diffusion bytes.
        assert net.total_radio_bytes_sent() > net.total_diffusion_bytes_sent()

    def test_energy_accounted(self):
        net = SensorNetwork(Topology.line(2, spacing=10.0))
        sub = AttributeVector.builder().eq(Key.TYPE, "t").build()
        net.api(0).subscribe(sub, lambda a, m: None)
        net.run(until=5.0)
        assert net.radio_energy(elapsed=5.0).total > 0
        assert net.stack(0).modem.airtime_sent > 0


class TestIsiTestbed:
    def test_fourteen_nodes(self):
        topo = isi_testbed_topology()
        assert len(topo) == 14
        assert len(ISI_NODE_IDS) == 14

    def test_paper_node_ids_present(self):
        """Node ids the paper names: sink 28, sources/lights, audio 20,
        user 39, the 20-2x long link, tenth-floor nodes 11/13/16."""
        for node_id in (28, 25, 16, 22, 13, 20, 39, 11, 21):
            assert node_id in ISI_NODE_IDS

    def test_tenth_floor_nodes(self):
        """'Light nodes (11, 13, 16) are on the 10th floor.'"""
        topo = isi_testbed_topology()
        for node_id in ISI_TENTH_FLOOR:
            assert topo.position(node_id).floor == 0
        for node_id in set(ISI_NODE_IDS) - set(ISI_TENTH_FLOOR):
            assert topo.position(node_id).floor == 1

    def test_roles_are_testbed_nodes(self):
        assert FIG8_SINK in ISI_NODE_IDS
        assert all(s in ISI_NODE_IDS for s in FIG8_SOURCES)
        assert FIG9_USER in ISI_NODE_IDS
        assert FIG9_AUDIO in ISI_NODE_IDS
        assert all(l in ISI_NODE_IDS for l in FIG9_LIGHTS)

    def test_network_is_multi_hop(self):
        """'the network is typically 5 hops across': the sink and the
        sources must not be within radio range of each other."""
        topo = isi_testbed_topology()
        prop = DistancePropagation(
            topo, full_range=ISI_FULL_RANGE, max_range=ISI_MAX_RANGE
        )
        for source in FIG8_SOURCES:
            assert prop.link_prr(source, FIG8_SINK, 0.0) == 0.0

    def test_lights_one_hop_from_audio(self):
        """'It is one hop from the light sensors to the audio sensor.'"""
        topo = isi_testbed_topology()
        prop = DistancePropagation(
            topo, full_range=ISI_FULL_RANGE, max_range=ISI_MAX_RANGE
        )
        for light in FIG9_LIGHTS:
            assert prop.link_prr(light, FIG9_AUDIO, 0.0) > 0.5

    def test_user_not_adjacent_to_audio(self):
        """'two hops from there to the user node.'"""
        topo = isi_testbed_topology()
        prop = DistancePropagation(
            topo, full_range=ISI_FULL_RANGE, max_range=ISI_MAX_RANGE
        )
        assert prop.link_prr(FIG9_AUDIO, FIG9_USER, 0.0) < 0.3

    def test_sources_multiple_hops_from_sink_but_connected(self):
        """Interest from the sink must reach every source (the network
        is connected) over multiple hops."""
        net = isi_testbed_network(seed=1)
        sub = AttributeVector.builder().eq(Key.TYPE, "reach").build()
        net.api(FIG8_SINK).subscribe(sub, lambda a, m: None)
        net.run(until=10.0)
        for source in FIG8_SOURCES:
            assert len(net.node(source).gradients) == 1

    def test_network_factory_applies_config(self):
        config = DiffusionConfig(interest_interval=30.0, gradient_timeout=90.0)
        net = isi_testbed_network(seed=1, config=config)
        assert net.node(FIG8_SINK).config.interest_interval == 30.0


class TestDutyCycledNetwork:
    def test_duty_cycle_set_on_every_mac(self):
        net = SensorNetwork(Topology.line(3, spacing=15.0))
        for node_id in net.node_ids():
            net.stack(node_id).mac.set_duty_cycle(0.5)
        for node_id in net.node_ids():
            assert net.stack(node_id).mac.duty_cycle == 0.5
            assert net.stack(node_id).radio_energy(10.0).listen == 5.0

    def test_duty_cycled_network_still_delivers(self):
        net = SensorNetwork(Topology.line(3, spacing=15.0), seed=8)
        for node_id in net.node_ids():
            net.stack(node_id).mac.set_duty_cycle(0.3)
        received = []
        sub = AttributeVector.builder().eq(Key.TYPE, "t").build()
        net.api(0).subscribe(sub, lambda a, m: received.append(a))
        pub = net.api(2).publish(
            AttributeVector.builder().actual(Key.TYPE, "t").build()
        )
        for i in range(5):
            net.sim.schedule(
                2.0 + 2 * i, net.api(2).send, pub,
                AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
            )
        net.run(until=60.0)
        assert len(received) >= 3


class TestFigure1Phases:
    """Figure 1's three phases on the radio stack: a 5-node chain, the
    sink at node 0 tasking node 4, twenty events one second apart."""

    @pytest.fixture(scope="class")
    def cycle(self):
        net = SensorNetwork(Topology.line(5, spacing=15.0), seed=3)
        received = []
        net.api(0).subscribe(
            AttributeVector.builder()
            .eq(Key.TYPE, "track").actual(Key.INTERVAL, 1000).build(),
            lambda a, m: received.append((net.sim.now, a)),
        )
        pub = net.api(4).publish(
            AttributeVector.builder().actual(Key.TYPE, "track").build()
        )
        for i in range(20):
            net.sim.schedule(
                3.0 + i, net.api(4).send, pub,
                AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
            )
        net.run(until=30.0)
        return net, received

    def test_a_interest_propagation(self, cycle):
        net, _ = cycle
        for node_id in range(1, 5):
            assert len(net.node(node_id).gradients) >= 1

    def test_b_gradients_point_to_the_sink(self, cycle):
        net, _ = cycle
        for node_id in range(1, 5):
            entry = net.node(node_id).gradients.entries()[0]
            assert entry.active_gradient_neighbors(net.sim.now)

    def test_c_reinforced_delivery(self, cycle):
        net, received = cycle
        assert len(received) >= 10  # most of 20 events over 4 best-effort hops
        # Relays carried plain DATA (unicast on the reinforced path).
        for node_id in (1, 2, 3):
            assert net.node(node_id).stats.messages_by_type[MessageType.DATA] >= 5

    def test_reinforcements_flowed(self, cycle):
        net, _ = cycle
        total = sum(
            net.node(n).stats.messages_by_type[MessageType.POSITIVE_REINFORCEMENT]
            for n in net.node_ids()
        )
        assert total >= 4  # at least one per hop
