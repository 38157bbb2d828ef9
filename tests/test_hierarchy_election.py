"""Cluster-head election: determinism, isolation, one-hop scope, repair."""

import random

from repro.core import DiffusionConfig
from repro.core.messages import MessageType
from repro.faults import FaultEngine, FaultPlan, NodeCrash
from repro.faults.metrics import ResilienceProbe
from repro.hierarchy import HierarchyParams, install_hierarchy
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio import Topology
from repro.testbed import SensorNetwork

#: fast election cadence so short runs converge and age out quickly.
FAST = {
    "announce_interval": 2.0,
    "announce_jitter": 0.5,
    "refresh_damping": 0.0,
}


def tight_config():
    """Compressed diffusion timers (default 60s cadences never
    reinforce inside a short test run)."""
    return DiffusionConfig(
        interest_interval=8.0,
        interest_jitter=0.3,
        exploratory_interval=8.0,
        gradient_timeout=25.0,
        reinforced_timeout=20.0,
    )


def clustered_net(seed=5, columns=5, rows=5, params=None):
    topo = Topology.grid(columns, rows, spacing=15.0)
    net = SensorNetwork(topo, config=tight_config(), seed=seed)
    runtime = install_hierarchy(
        net, mode="clustered", params=dict(FAST, **(params or {}))
    )
    return net, runtime


class TestDeterminism:
    def test_same_seed_elects_same_heads(self):
        runs = []
        for _ in range(2):
            net, runtime = clustered_net(seed=5)
            net.run(until=12.0)
            runs.append(runtime.head_nodes())
        assert runs[0], "some heads must be elected"
        assert runs[0] == runs[1]

    def test_global_random_state_cannot_perturb_elections(self):
        # All election randomness comes from per-node seed streams;
        # scrambling the global random module must change nothing.
        net, runtime = clustered_net(seed=5)
        net.run(until=12.0)
        baseline = runtime.head_nodes()

        random.seed(0xDEADBEEF)
        for _ in range(97):
            random.random()
        net2, runtime2 = clustered_net(seed=5)
        net2.run(until=12.0)
        assert runtime2.head_nodes() == baseline


class TestAnnouncementScope:
    def test_announcements_are_strictly_one_hop(self):
        # Every CONTROL transmission is an origination, never a
        # forward: total CONTROL tx == announcements sent.
        net, runtime = clustered_net(seed=7)
        net.run(until=12.0)
        sent = sum(
            net.node(nid).stats.messages_by_type[MessageType.CONTROL]
            for nid in net.node_ids()
        )
        announced = sum(
            s.announces_sent for s in runtime.services.values()
        )
        assert announced > 0
        assert sent == announced

    def test_control_messages_never_reach_subscriptions(self):
        net, _ = clustered_net(seed=7)
        got = []
        sub = AttributeVector.builder().eq(Key.TYPE, "t").build()
        net.api(12).subscribe(sub, lambda a, m: got.append(m))
        net.run(until=8.0)
        assert got == []


class TestCrashRepair:
    def test_head_crash_triggers_reelection_and_delivery_recovers(self):
        topo = Topology.grid(5, 5, spacing=15.0)
        net = SensorNetwork(topo, config=tight_config(), seed=9)
        runtime = install_hierarchy(
            net, mode="clustered", params=dict(FAST)
        )
        source, sink = 24, 0
        delivered = []
        sub = AttributeVector.builder().eq(Key.TYPE, "crashcase").build()
        net.api(sink).subscribe(sub, lambda a, m: delivered.append(net.sim.now))
        pub = net.api(source).publish(
            AttributeVector.builder().actual(Key.TYPE, "crashcase").build()
        )
        for i in range(38):
            net.sim.schedule(
                2.0 + 2.0 * i, net.api(source).send, pub,
                AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
            )
        probe = ResilienceProbe(net, sink=sink, sources=[source])

        # Let the election settle, then crash whichever head the middle
        # of the grid currently follows.
        net.run(until=14.0)
        heads = runtime.head_nodes()
        assert heads, "no heads elected before the crash"
        victim = runtime.head_of(12)
        if victim in (source, sink) or victim is None:
            victim = next(
                h for h in heads if h not in (source, sink)
            )
        before = sum(s.reelections for s in runtime.services.values())

        plan = FaultPlan(
            actions=[NodeCrash(node=victim, at=16.0, recover_at=None)]
        )
        FaultEngine(net, plan)
        net.run(until=60.0)

        assert victim not in runtime.head_nodes()
        after = sum(s.reelections for s in runtime.services.values())
        assert after > before, "neighborhood never re-elected"
        # Data originated after the crash still reaches the sink.
        ttr = probe.time_to_repair(16.0)
        assert ttr is not None, "delivery never recovered after head crash"

    def test_rebooted_head_restarts_with_clean_soft_state(self):
        net, runtime = clustered_net(seed=11)
        net.run(until=12.0)
        heads = runtime.head_nodes()
        assert heads
        victim = heads[0]
        service = runtime.services[victim]
        assert service.neighbors
        net.fail_node(victim)
        assert service._announce_event is None  # announcements stopped
        net.resurrect_node(victim)
        assert service.neighbors == {}
        assert service.announced_score is None
        net.run(until=20.0)
        assert service.announces_sent > 0
