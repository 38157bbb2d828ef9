"""Tests for mobility, failures, and diffusion's soft-state repair."""

import math

import pytest

from repro import AttributeVector, Key
from repro.core import DiffusionConfig
from repro.radio import DistancePropagation, Topology
from repro.faults import FaultEngine, FaultPlan, NodeCrash
from repro.radio.dynamics import RandomWaypointMobility
from repro.sim import Simulator
from repro.testbed import SensorNetwork


class TestTopologyMobility:
    def test_move_node_updates_distances(self):
        topo = Topology()
        topo.add_node(1, 0.0, 0.0)
        topo.add_node(2, 10.0, 0.0)
        topo.move_node(2, 30.0, 40.0)
        assert topo.effective_distance(1, 2) == pytest.approx(50.0)

    def test_move_preserves_floor_by_default(self):
        topo = Topology()
        topo.add_node(1, 0.0, 0.0, floor=1)
        topo.move_node(1, 5.0, 5.0)
        assert topo.position(1).floor == 1
        topo.move_node(1, 5.0, 5.0, floor=0)
        assert topo.position(1).floor == 0

    def test_propagation_sees_movement(self):
        topo = Topology()
        topo.add_node(1, 0.0, 0.0)
        topo.add_node(2, 10.0, 0.0)
        prop = DistancePropagation(topo, full_range=20.0, max_range=30.0,
                                   asymmetry=0.0)
        assert prop.link_prr(1, 2, 0.0) == 1.0
        topo.move_node(2, 100.0, 0.0)
        assert prop.link_prr(1, 2, 1.0) == 0.0


class TestRandomWaypoint:
    def _mobility(self, **kwargs):
        sim = Simulator()
        topo = Topology()
        topo.add_node(7, 0.0, 0.0)
        mob = RandomWaypointMobility(
            sim, topo, 7, bounds=(0.0, 50.0, 0.0, 50.0), **kwargs
        )
        return sim, topo, mob

    def test_node_stays_in_bounds(self):
        sim, topo, mob = self._mobility(speed=5.0, step=0.5)
        positions = []

        def sample():
            positions.append(topo.position(7))
            sim.schedule(1.0, sample)

        sim.schedule(0.5, sample)
        sim.run(until=120.0)
        assert len(positions) > 100
        for p in positions:
            assert -1e-9 <= p.x <= 50.0
            assert -1e-9 <= p.y <= 50.0

    def test_speed_respected_per_step(self):
        sim, topo, mob = self._mobility(speed=2.0, step=1.0)
        last = topo.position(7)
        max_step = 0.0

        def sample():
            nonlocal last, max_step
            current = topo.position(7)
            max_step = max(max_step, last.planar_distance(current))
            last = current
            sim.schedule(1.0, sample)

        sim.schedule(1.0, sample)
        sim.run(until=60.0)
        assert max_step <= 2.0 + 1e-6

    def test_waypoints_visited_and_distance_tracked(self):
        sim, topo, mob = self._mobility(speed=10.0, step=0.5)
        sim.run(until=120.0)
        assert mob.waypoints_visited >= 3
        assert mob.distance_travelled > 50.0

    def test_stop_halts_movement(self):
        sim, topo, mob = self._mobility(speed=5.0, step=0.5)
        sim.run(until=5.0)
        mob.stop()
        frozen = topo.position(7)
        sim.run(until=20.0)
        assert topo.position(7) == frozen

    def test_invalid_parameters(self):
        sim = Simulator()
        topo = Topology()
        topo.add_node(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(sim, topo, 1, bounds=(10, 0, 0, 10))
        with pytest.raises(ValueError):
            RandomWaypointMobility(sim, topo, 1, bounds=(0, 10, 0, 10), speed=0)

    def test_default_rng_is_seed_derived_stream(self):
        # The default must come from the shared stream derivation, not
        # bare random.Random(node_id): node-local streams elsewhere
        # (MAC backoff, diffusion jitter) would otherwise replay the
        # same sequence under identical seeds.
        from repro.sim.rng import make_rng

        sim, topo, mob = self._mobility(speed=5.0)
        expected = make_rng(7, "mobility")
        assert mob.rng.random() == expected.random()
        import random as stdlib_random

        bare = stdlib_random.Random(7)
        sim2 = Simulator()
        topo2 = Topology()
        topo2.add_node(7, 0.0, 0.0)
        mob2 = RandomWaypointMobility(
            sim2, topo2, 7, bounds=(0.0, 50.0, 0.0, 50.0), speed=5.0
        )
        assert mob2.rng.random() != bare.random()


class TestScheduledCrash:
    def _network(self):
        # Diamond: 0 - {1, 2} - 3, alternate relays.
        topo = Topology()
        topo.add_node(0, 0.0, 0.0)
        topo.add_node(1, 14.0, 10.0)
        topo.add_node(2, 14.0, -10.0)
        topo.add_node(3, 28.0, 0.0)
        config = DiffusionConfig(
            interest_interval=10.0,
            gradient_timeout=30.0,
            interest_jitter=0.2,
            exploratory_interval=10.0,
            reinforced_timeout=25.0,
        )
        return SensorNetwork(topo, seed=9, config=config)

    def test_failure_and_repair_around_dead_relay(self):
        net = self._network()
        received = []
        sub = AttributeVector.builder().eq(Key.TYPE, "t").build()
        net.api(0).subscribe(sub, lambda a, m: received.append(net.sim.now))
        pub = net.api(3).publish(
            AttributeVector.builder().actual(Key.TYPE, "t").build()
        )
        for i in range(60):
            net.sim.schedule(
                2.0 + i, net.api(3).send, pub,
                AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
            )
        FaultEngine(net, FaultPlan((NodeCrash(node=1, at=20.0),)))
        net.run(until=80.0)
        # Deliveries continue well after the failure: exploratory
        # messages re-discover the surviving relay.
        late = [t for t in received if t > 45.0]
        assert len(late) >= 10

    def test_recovery_restores_listening(self):
        net = self._network()
        engine = FaultEngine(
            net, FaultPlan((NodeCrash(node=1, at=5.0, recover_at=15.0),))
        )
        net.run(until=30.0)
        phases = [entry["phase"] for entry in engine.timeline]
        assert phases.count("inject") == 1
        assert phases.count("heal") == 1
        assert net.stack(1).modem.receive_callback is not None

    def test_recovery_before_failure_rejected(self):
        net = self._network()
        with pytest.raises(ValueError):
            FaultEngine(
                net, FaultPlan((NodeCrash(node=1, at=10.0, recover_at=5.0),))
            )

    def _run_with_planted_gradient(self, clear_state):
        """Crash relay 1 with a sentinel gradient planted just before;
        returns the relay's gradient table after recovery + traffic."""
        net = self._network()
        received = []
        sub = AttributeVector.builder().eq(Key.TYPE, "t").build()
        net.api(0).subscribe(sub, lambda a, m: received.append(net.sim.now))
        pub = net.api(3).publish(
            AttributeVector.builder().actual(Key.TYPE, "t").build()
        )
        for i in range(70):
            net.sim.schedule(
                2.0 + i, net.api(3).send, pub,
                AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
            )
        FaultEngine(
            net,
            FaultPlan((
                NodeCrash(
                    node=1, at=20.0, recover_at=40.0, clear_state=clear_state
                ),
            )),
        )
        sentinel = AttributeVector.builder().eq(Key.TYPE, "sentinel").build()

        def plant():
            # A gradient toward a neighbor that does not exist: only a
            # state wipe can ever remove it.
            entry = net.node(1).gradients.entry_for(sentinel)
            entry.update_gradient(99, net.sim.now, timeout=10_000.0)

        net.sim.schedule_at(15.0, plant)
        net.run(until=80.0)
        table = net.node(1).gradients
        neighbors = {
            neighbor
            for entry in table.entries()
            for neighbor in entry.gradients
        }
        return table, neighbors, received

    def test_reboot_wipes_soft_state_and_rebuilds_from_traffic(self):
        table, neighbors, received = self._run_with_planted_gradient(
            clear_state=True
        )
        # The sentinel is gone: post-reboot gradients were rebuilt by
        # exploratory/interest traffic, not inherited.
        assert 99 not in neighbors
        # And rebuilt they were — the relay re-learned real neighbors
        # and deliveries continued after the reboot.
        assert neighbors, "relay never re-learned any gradients"
        assert any(t > 45.0 for t in received)

    def test_legacy_recovery_keeps_soft_state(self):
        table, neighbors, received = self._run_with_planted_gradient(
            clear_state=False
        )
        assert 99 in neighbors  # pre-crash state inherited
