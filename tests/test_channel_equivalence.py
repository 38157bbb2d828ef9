"""Channel equivalence suite.

The neighborhood fast path (``Channel``) must be *verdict-identical* to
the reference O(N) scan (``ReferenceChannel``): same fragments
delivered, collided, and lost, in the same order, on seeded scenarios —
including mobility (epoch invalidation), Gilbert–Elliot links (per-link
window expiry), capture effect on and off, duty-cycled sleeping radios,
mid-run node failures, and both loss modes.  Each case here builds the
same scenario twice — once per ``channel_cls`` — runs an identical
workload, and compares full channel trace event sequences plus every
outcome counter.
"""

import itertools
import random

import pytest

import repro.core.messages as core_messages
from repro import AttributeVector, Key
from repro.core import DiffusionConfig
from repro.mac import DutyCycledCsmaMac
from repro.radio import (
    Channel,
    DistancePropagation,
    GilbertElliotLink,
    ReferenceChannel,
    Topology,
)
from repro.radio.dynamics import (
    FailureEvent,
    FailureSchedule,
    RandomWaypointMobility,
)
from repro.shard import ShardPlan, run_oracle
from repro.testbed import SensorNetwork

#: channel-layer categories whose full event sequence must match.
CHANNEL_CATEGORIES = (
    "channel.tx",
    "channel.rx",
    "channel.collision",
    "channel.loss",
    "path.drop",
)

CONFIG = DiffusionConfig(
    interest_interval=8.0,
    interest_jitter=0.3,
    exploratory_interval=8.0,
    gradient_timeout=25.0,
    reinforced_timeout=20.0,
)


def random_topology(n_nodes: int, seed: int, side: float = 70.0) -> Topology:
    rng = random.Random(seed * 1009 + 7)
    topo = Topology()
    for node_id in range(n_nodes):
        topo.add_node(node_id, rng.uniform(0, side), rng.uniform(0, side))
    return topo


def run_scenario(
    channel_cls: type,
    seed: int,
    n_nodes: int = 10,
    duration: float = 30.0,
    gilbert: bool = False,
    bad_scale: float = 0.2,
    capture: bool = True,
    mobile: bool = False,
    duty_cycle: bool = False,
    failures: bool = False,
    loss_mode: str = "stream",
):
    """Build + run one seeded scenario; return (trace events, outcome)."""
    # msg_id draws from a process-global counter; restart it so the two
    # runs under comparison allocate identical trace ids (this also
    # makes any divergence in message-creation *order* visible).
    core_messages._msg_counter = itertools.count(1)
    topo = random_topology(n_nodes, seed)
    propagation = DistancePropagation(topo, seed=seed)
    if gilbert:
        propagation = GilbertElliotLink(
            propagation, mean_good=4.0, mean_bad=1.5,
            bad_scale=bad_scale, seed=seed,
        )
    mac_factory = None
    if duty_cycle:
        def mac_factory(sim, modem, rng, queue_limit):
            return DutyCycledCsmaMac(
                sim, modem, duty_cycle=0.5, period=1.0, rng=rng,
                queue_limit=queue_limit,
            )
    net = SensorNetwork(
        topo, config=CONFIG, seed=seed, propagation=propagation,
        mac_factory=mac_factory, channel_cls=channel_cls, loss_mode=loss_mode,
    )
    net.channel.capture_effect = capture
    assert type(net.channel) is channel_cls

    events = []
    for category in CHANNEL_CATEGORIES:
        net.trace.subscribe(
            category,
            lambda r: events.append(
                (r.time, r.category, r.node, tuple(sorted(r.data.items())))
            ),
        )

    delivered_payloads = []
    sink, source = 0, n_nodes - 1
    sub = AttributeVector.builder().eq(Key.TYPE, "equiv").build()
    net.api(sink).subscribe(
        sub, lambda attrs, msg: delivered_payloads.append(net.sim.now)
    )
    pub = net.api(source).publish(
        AttributeVector.builder().actual(Key.TYPE, "equiv").build()
    )
    for i in range(int(duration) - 3):
        net.sim.schedule(
            2.0 + i, net.api(source).send, pub,
            AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
        )

    if mobile:
        for node_id in (1, 2):
            # Pin trajectories to the scenario seed: this suite compares
            # channel implementations, so it must not drift when the
            # mobility default RNG stream changes.
            RandomWaypointMobility(
                net.sim, topo, node_id, bounds=(0.0, 70.0, 0.0, 70.0),
                speed=4.0, step=0.5, rng=random.Random(seed * 1013 + node_id),
            )
    if failures:
        FailureSchedule(
            net,
            [
                FailureEvent(node_id=1, fail_at=duration / 3),
                FailureEvent(
                    node_id=2,
                    fail_at=duration / 4,
                    recover_at=duration / 2,
                ),
            ],
        )

    net.run(until=duration)
    channel = net.channel
    outcome = {
        "sent": channel.fragments_sent,
        "delivered": channel.fragments_delivered,
        "collided": channel.fragments_collided,
        "lost": channel.fragments_lost,
        "mac_transmitted": sum(
            s.mac.stats.transmitted for s in net.stacks.values()
        ),
        "mac_backoffs": sum(s.mac.stats.backoffs for s in net.stacks.values()),
        "app_delivered": delivered_payloads,
    }
    return events, outcome, channel


def assert_equivalent(**kwargs):
    ref_events, ref_outcome, ref_channel = run_scenario(ReferenceChannel, **kwargs)
    fast_events, fast_outcome, fast_channel = run_scenario(Channel, **kwargs)
    assert fast_outcome == ref_outcome
    assert fast_events == ref_events
    # The scenario has to produce real traffic for the comparison to
    # mean anything.
    assert ref_outcome["sent"] > 20
    return ref_channel, fast_channel


class TestStaticEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_static_topologies(self, seed):
        assert_equivalent(seed=seed)

    def test_capture_effect_off(self):
        assert_equivalent(seed=6, capture=False)

    def test_hashed_loss_draws(self):
        assert_equivalent(seed=5, loss_mode="hashed")

    def test_static_topology_builds_sets_once(self):
        _, fast_channel = assert_equivalent(seed=2)
        index = fast_channel.index
        # One audibility set + one carrier set per querying node at most:
        # nothing was invalidated, so no set was ever built twice.
        assert index.rebuilds == 0
        assert index.set_builds <= 2 * len(fast_channel.node_ids())
        assert index.memo_hits > index.memo_misses


class TestDynamicEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gilbert_elliot_links(self, seed):
        assert_equivalent(seed=seed, gilbert=True)

    def test_gilbert_elliot_dead_bad_state(self):
        # bad_scale=0 makes audibility supersets strict: a link can be
        # in the set while its instantaneous PRR is exactly zero.
        assert_equivalent(seed=4, gilbert=True, bad_scale=0.0)

    def test_hashed_loss_draws_with_gilbert(self):
        assert_equivalent(seed=6, gilbert=True, loss_mode="hashed")

    @pytest.mark.parametrize("seed", [1, 2])
    def test_mobility_epoch_invalidation(self, seed):
        ref, fast = assert_equivalent(seed=seed, mobile=True)
        # Moves must actually have invalidated the caches.
        assert fast.index.rebuilds > 0

    def test_duty_cycled_sleeping_radios(self):
        assert_equivalent(seed=3, duty_cycle=True)

    def test_failures_and_recovery(self):
        assert_equivalent(seed=5, failures=True)

    def test_everything_at_once(self):
        assert_equivalent(
            seed=8, gilbert=True, mobile=True, duty_cycle=True, failures=True
        )

    def test_everything_at_once_hashed(self):
        assert_equivalent(
            seed=8, gilbert=True, mobile=True, duty_cycle=True, failures=True,
            loss_mode="hashed",
        )


def beacon_flood(monkeypatch, channel_cls, scenario="flood", **params):
    """The shard kernel's beacon flood (every node beacons through its
    CSMA MAC, no upper layers) in one queue, on either engine."""
    built = []

    def build_channel(*args, **kwargs):
        built.append(channel_cls(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr("repro.shard.scenario.Channel", build_channel)
    outcome = run_oracle(
        ShardPlan(
            scenario=scenario, params=params, seed=1, duration=12.0, shards=1
        )
    )
    (channel,) = built
    return outcome, channel


def checks_per_query(channel):
    return channel.carrier_checks / channel.carrier_queries


class TestBeaconFlood:
    """Radio neighbourhood constant, N growing: what one carrier-sense
    query costs on each engine (counters, not wall time)."""

    def test_scan_cost_grows_with_n_only_on_the_reference(self, monkeypatch):
        per_query = {}
        for columns, rows in ((7, 2), (10, 5)):
            n = columns * rows
            want, reference = beacon_flood(
                monkeypatch, ReferenceChannel, columns=columns, rows=rows
            )
            got, fast = beacon_flood(
                monkeypatch, Channel, columns=columns, rows=rows
            )
            assert got == want
            assert want["delivered"] > 0 and want["collided"] > 0
            per_query[n] = checks_per_query(reference)
            # The reference walks the whole modem table per query (an
            # early exit on a busy carrier keeps it just under N - 1);
            # the index examines only transmitters on the air.
            assert per_query[n] >= (n - 1) / 2
            assert checks_per_query(fast) <= per_query[n] / 8
        assert per_query[50] >= 2 * per_query[14]

    def test_set_builds_stay_local_under_mobility(self, monkeypatch):
        # One node walks the top row of a 16x16 grid, a propagation
        # epoch every 0.05 s.  Verdicts must still equal the reference
        # scan's, and a set build may probe only the sender's 3x3
        # reach-sized cells (<= 4 grid points each) however large N is.
        walk = dict(
            columns=16, rows=16, movers=1, move_steps=200,
            move_start=1.0, move_interval=0.05,
        )
        want, _ = beacon_flood(
            monkeypatch, ReferenceChannel, "mobility", **walk
        )
        got, fast = beacon_flood(monkeypatch, Channel, "mobility", **walk)
        assert got == want
        index = fast.index
        assert index.rebuilds > 100
        assert index.bound_probes <= 36 * index.set_builds
