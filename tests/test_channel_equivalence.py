"""Channel equivalence suite.

The neighborhood fast path (``Channel``) must be *verdict-identical* to
the reference O(N) scan (``ReferenceChannel``): same fragments
delivered, collided, and lost, in the same order, on seeded scenarios —
including mobility (epoch invalidation), Gilbert–Elliot links (per-link
window expiry), capture effect, duty-cycled sleeping radios,
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
from repro.faults import FaultEngine, FaultPlan, NodeCrash
from repro.faults.overlay import FaultOverlayPropagation
from repro.radio import (
    Channel,
    DistancePropagation,
    GilbertElliotLink,
    Modem,
    RadioParams,
    ReferenceChannel,
    TablePropagation,
    Topology,
)
from repro.radio.dynamics import RandomWaypointMobility
from repro.shard import ShardPlan, run_oracle
from repro.sim import SeedSequence, Simulator
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
    mobile: bool = False,
    duty_cycle: bool = False,
    failures: bool = False,
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
    net = SensorNetwork(
        topo, config=CONFIG, seed=seed, propagation=propagation,
        channel_cls=channel_cls,
    )
    if duty_cycle:
        for stack in net.stacks.values():
            stack.mac.set_duty_cycle(0.5)
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
        FaultEngine(
            net,
            FaultPlan((
                NodeCrash(node=1, at=duration / 3),
                NodeCrash(node=2, at=duration / 4, recover_at=duration / 2),
            )),
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

    def test_static_topology_builds_sets_once(self):
        _, fast_channel = assert_equivalent(seed=2)
        index = fast_channel.index
        # One audibility set + one carrier set per querying node at most:
        # nothing was invalidated, so no set was ever built twice.
        assert index.rebuilds == 0
        assert index.set_builds <= 2 * len(fast_channel.node_ids())
        # Pinned: a receiver lane reused counts every PRR probe it
        # saves as the memo hit it would have been.
        assert (index.memo_hits, index.memo_misses) == (72, 10)


class TestDynamicEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 6])
    def test_gilbert_elliot_links(self, seed):
        assert_equivalent(seed=seed, gilbert=True)

    def test_gilbert_elliot_dead_bad_state(self):
        # bad_scale=0 makes audibility supersets strict: a link can be
        # in the set while its instantaneous PRR is exactly zero.
        assert_equivalent(seed=4, gilbert=True, bad_scale=0.0)

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


def on_both_engines(script, make_model, n_nodes):
    """Run ``script(sim, channel, modems, model)`` on a bare radio (no
    MAC, no upper layers) under each engine, each over its own model
    from ``make_model()``; the two must report the same thing, which is
    returned.  Scripts record carrier verdicts and outcome counters."""
    reports = []
    for channel_cls in (ReferenceChannel, Channel):
        sim = Simulator()
        model = make_model()
        channel = channel_cls(sim, model, seeds=SeedSequence(1))
        modems = [Modem(sim, channel, node_id=n) for n in range(n_nodes)]
        reports.append(script(sim, channel, modems, model))
    assert reports[0] == reports[1]
    return reports[0]


def sense_all(channel, listeners):
    return [channel.carrier_busy(node) for node in listeners]


#: One full fragment's time on the air (~19.7 ms); scripts act inside it.
AIRTIME = RadioParams().fragment_airtime(27)


class TestCarrierSenseMidAirtime:
    """Carrier sense is answered from the listener's cached source set
    intersected with who is on the air.  Whatever changes between a
    transmission's start and a neighbour's query — positions, link
    state, cuts, membership — the verdict must be the oracle's."""

    @staticmethod
    def line_model(wrap=lambda model: model):
        def make():
            topo = Topology()
            topo.add_node(0, 0.0, 0.0)       # the transmitter
            topo.add_node(1, 10.0, 0.0)      # hears it
            topo.add_node(2, 200.0, 0.0)     # far out of range
            topo.add_node(3, 0.0, 10.0)      # hears it throughout
            return wrap(DistancePropagation(topo, asymmetry=0.0))
        return make

    def test_walking_into_and_out_of_range_of_a_fragment_on_the_air(self):
        def script(sim, channel, modems, model):
            before = sense_all(channel, (1, 2, 3))      # caches warm, idle
            modems[0].transmit_fragment("x", 27)
            started = sense_all(channel, (1, 2, 3))
            sim.run(until=AIRTIME / 3)
            model.topology.move_node(1, 300.0, 0.0)     # walks out
            model.topology.move_node(2, 10.0, 5.0)      # walks in
            moved = sense_all(channel, (1, 2, 3))
            sim.run(until=2 * AIRTIME / 3)
            model.topology.move_node(1, 10.0, 0.0)      # and back
            back = sense_all(channel, (1, 2, 3))
            sim.run()
            return before, started, moved, back, sense_all(channel, (1, 2, 3))

        assert on_both_engines(script, self.line_model(), 4) == (
            [False, False, False],
            [True, False, True],
            [False, True, True],
            [True, True, True],
            [False, False, False],
        )

    def test_gilbert_elliot_flips_under_a_fragment(self):
        def make():
            # Dwell times of a few ms: each link flips several times
            # inside one airtime, and a bad state is dead silence.
            return GilbertElliotLink(
                self.line_model()(), mean_good=0.004, mean_bad=0.004,
                bad_scale=0.0, seed=3,
            )

        def script(sim, channel, modems, model):
            modems[0].transmit_fragment("x", 27)
            verdicts = []
            for step in range(1, 19):
                sim.run(until=step * 0.001)
                verdicts.append(sense_all(channel, (1, 2, 3)))
            return verdicts

        verdicts = on_both_engines(script, make, 4)
        assert {v[0] for v in verdicts} == {True, False}    # 0->1 flipped
        assert {v[2] for v in verdicts} == {True, False}    # 0->3 flipped
        assert not any(v[1] for v in verdicts)

    def test_fault_cut_lands_under_a_fragment(self):
        def script(sim, channel, modems, model):
            sense_all(channel, (1, 2, 3))               # caches warm
            modems[0].transmit_fragment("x", 27)
            sim.run(until=AIRTIME / 3)
            model.cut("flap", ((0,), (1,)))
            cut = sense_all(channel, (1, 2, 3))
            sim.run(until=2 * AIRTIME / 3)
            model.restore("flap")
            model.cut("partition", [[0, 1, 2], [3]])
            healed = sense_all(channel, (1, 2, 3))
            sim.run()
            return cut, healed, channel.fragments_delivered

        cut, healed, delivered = on_both_engines(
            script, self.line_model(FaultOverlayPropagation), 4
        )
        assert cut == [False, False, True]
        assert healed == [True, False, False]
        assert delivered == 2       # receptions keep the PRR they began with

    def test_asymmetric_links(self):
        # 0 is loud at 1; 1 reaches 0 (audibly, PRR 0.02) but below the
        # carrier threshold; 2 hears both, nobody hears 2.
        links = {(0, 1): 1.0, (1, 0): 0.02, (0, 2): 0.5, (1, 2): 0.05}

        def script(sim, channel, modems, model):
            verdicts = []
            for sender in (0, 1, 2):
                modems[sender].transmit_fragment("x", 27)
                verdicts.append(sense_all(channel, (0, 1, 2)))
                sim.run()
            modems[0].transmit_fragment("x", 27)
            modems[1].transmit_fragment("y", 27)
            verdicts.append(sense_all(channel, (0, 1, 2)))
            sim.run()
            return verdicts, channel.fragments_sent, channel.fragments_collided

        verdicts, _, _ = on_both_engines(
            script, lambda: TablePropagation(links), 3
        )
        assert verdicts == [
            [False, True, True],        # 0 on the air
            [False, False, True],       # 1 on the air: too faint at 0
            [False, False, False],      # 2 on the air: heard nowhere
            [False, True, True],        # 0 and 1 together
        ]

    def test_radio_outage_shorter_than_one_airtime(self):
        """detach then attach while the node's own fragment is on the
        air: it is still keyed up, and its neighbours still sense it."""
        links = {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0, (2, 1): 1.0}

        def script(sim, channel, modems, model):
            modems[0].transmit_fragment("x", 27)
            sim.run(until=AIRTIME / 4)
            modem = channel.detach(0)
            out = sense_all(channel, (0, 1, 2))
            sim.run(until=AIRTIME / 2)
            channel.attach(modem)
            back = sense_all(channel, (0, 1, 2))
            sim.run()
            return out, back, sense_all(channel, (0, 1, 2))

        out, back, done = on_both_engines(
            script, lambda: TablePropagation(links), 3
        )
        assert out == [False, False, False]
        assert back == [False, True, False]
        assert done == [False, False, False]

    def test_detached_node_still_listening_and_sending(self):
        """A node taken off the medium is in nobody's sets, but nothing
        stops its MAC from asking, or its modem from keying up: it
        senses what it would hear, and asserts no carrier itself."""
        def script(sim, channel, modems, model):
            sense_all(channel, (0, 1, 2, 3))            # caches warm
            listener = channel.detach(1)
            modems[0].transmit_fragment("x", 27)
            verdicts = [sense_all(channel, (1, 2, 3))]
            sim.run(until=AIRTIME / 2)
            model.topology.move_node(0, 190.0, 0.0)     # next to node 2
            verdicts.append(sense_all(channel, (1, 2, 3)))
            sim.run()
            listener.transmit_fragment("y", 27)         # off the medium
            verdicts.append(sense_all(channel, (0, 2, 3)))
            sim.run(until=sim.now + AIRTIME / 2)
            channel.attach(listener)                    # mid-airtime
            verdicts.append(sense_all(channel, (0, 2, 3)))
            sim.run()
            return verdicts, channel.fragments_delivered

        verdicts, delivered = on_both_engines(script, self.line_model(), 4)
        assert verdicts == [
            [True, False, True],
            [False, True, False],
            [False, False, False],
            [False, False, True],
        ]
        assert delivered > 0


class TestReceiverLanes:
    """The fast path caches each sender's receivers as lanes and reuses
    them while the index hands back the same audibility list and no PRR
    window of the sender's links has closed.  One sender sends, something
    changes under the cache, and it sends again: every reception's
    verdict must be the scan's."""

    @staticmethod
    def heard(modems):
        """Log ``(payload, receiver)`` of every delivered fragment."""
        log = []
        for modem in modems:
            modem.receive_callback = (
                lambda payload, src, nbytes, link_dst, node=modem.node_id:
                log.append((payload, node))
            )
        return log

    @staticmethod
    def counters(channel):
        return (
            channel.fragments_delivered, channel.fragments_collided,
            channel.fragments_lost, channel.dropped_collision,
            channel.dropped_half_duplex,
        )

    def test_receiver_detached_and_reattached_between_sends(self):
        links = {(0, 1): 1.0, (0, 2): 1.0}

        def script(sim, channel, modems, model):
            log = self.heard(modems)
            modems[0].transmit_fragment("a", 27)
            sim.run()
            modem = channel.detach(1)
            modems[0].transmit_fragment("b", 27)
            sim.run()
            channel.attach(modem)
            modems[0].transmit_fragment("c", 27)
            sim.run()
            return log, self.counters(channel)

        log, _ = on_both_engines(script, lambda: TablePropagation(links), 3)
        # Re-attached, 1 is heard last: lanes keep attach order.
        assert log == [("a", 1), ("a", 2), ("b", 2), ("c", 2), ("c", 1)]

    def test_receiver_detached_and_reattached_within_one_airtime(self):
        links = {(0, 1): 1.0, (0, 2): 1.0, (2, 1): 1.0}

        def script(sim, channel, modems, model):
            log = self.heard(modems)
            modems[0].transmit_fragment("a", 27)
            sim.run(until=AIRTIME / 4)
            modem = channel.detach(1)
            sim.run(until=AIRTIME / 2)
            channel.attach(modem)
            sim.run()
            # Both on the air at once: they collide at 1, and 2 is
            # keyed up under 0's fragment.
            modems[0].transmit_fragment("b", 27)
            modems[2].transmit_fragment("c", 27)
            sim.run()
            return log, self.counters(channel)

        log, counters = on_both_engines(
            script, lambda: TablePropagation(links), 3
        )
        assert log == [("a", 2)]
        assert counters == (1, 2, 0, 2, 1)

    def test_table_link_edited_between_sends(self):
        def script(sim, channel, modems, model):
            log = self.heard(modems)
            modems[0].transmit_fragment("a", 27)
            sim.run()
            model.set_link(0, 1, 0.0)
            model.set_link(0, 3, 1.0)
            modems[0].transmit_fragment("b", 27)
            sim.run()
            return log, self.counters(channel)

        log, _ = on_both_engines(
            script, lambda: TablePropagation({(0, 1): 1.0, (0, 2): 1.0}), 4
        )
        assert log == [("a", 1), ("a", 2), ("b", 2), ("b", 3)]

    def test_gilbert_elliot_window_closes_between_sends(self):
        def make():
            # Dwell times of a few sends; a bad state is dead silence.
            return GilbertElliotLink(
                TablePropagation({(0, 1): 1.0, (0, 2): 1.0}),
                mean_good=0.1, mean_bad=0.1, bad_scale=0.0, seed=3,
            )

        def script(sim, channel, modems, model):
            log = self.heard(modems)
            for i in range(20):
                sim.schedule_at(0.05 * i, modems[0].transmit_fragment, i, 27)
            sim.run()
            return log, self.counters(channel)

        log, _ = on_both_engines(script, make, 3)
        for node in (1, 2):
            heard = {i for i, receiver in log if receiver == node}
            assert 0 < len(heard) < 20          # its link flipped

    def test_receiver_walks_out_of_range_between_sends(self):
        def script(sim, channel, modems, model):
            log = self.heard(modems)
            modems[0].transmit_fragment("a", 27)
            sim.run()
            model.topology.move_node(1, 300.0, 0.0)     # walks out
            modems[0].transmit_fragment("b", 27)
            sim.run()
            model.topology.move_node(1, 10.0, 0.0)      # and back
            modems[0].transmit_fragment("c", 27)
            sim.run()
            return log, self.counters(channel)

        log, _ = on_both_engines(
            script, TestCarrierSenseMidAirtime.line_model(), 4
        )
        assert log == [("a", 1), ("a", 3), ("b", 3), ("c", 1), ("c", 3)]

    def test_fault_overlay_spliced_in_between_sends(self):
        def script(sim, channel, modems, model):
            log = self.heard(modems)
            modems[0].transmit_fragment("a", 27)
            sim.run()
            overlay = FaultOverlayPropagation(model)
            overlay.cut("flap", ((0,), (1,)))
            channel.set_propagation(overlay)
            modems[0].transmit_fragment("b", 27)
            sim.run()
            return log, self.counters(channel)

        log, _ = on_both_engines(
            script, TestCarrierSenseMidAirtime.line_model(), 4
        )
        assert log == [("a", 1), ("a", 3), ("b", 3)]


#: how a shard admits a remote fragment: in full at its start, or its
#: carrier only when a move re-announced it mid-air.
GHOST_ADMISSIONS = {
    "transmission": lambda channel, src: channel.admit_remote_transmission(
        src, "x", 27, AIRTIME
    ),
    "carrier": lambda channel, src: channel.admit_remote_carrier(
        src, channel.sim.now + AIRTIME
    ),
}
GHOST = 9


class TestGhostCarrierSense:
    """A ghost — a transmitter with no modem here — sits in no listener's
    carrier-source set, so the fast path asks the model's bound before
    the exact PRR.  The verdict stays the scan's, for every listener."""

    @staticmethod
    def model(asymmetry=0.0):
        def make():
            topo = Topology()
            topo.add_node(GHOST, 0.0, 0.0)   # transmits on another shard
            topo.add_node(0, 10.0, 0.0)      # in reach
            topo.add_node(1, 200.0, 0.0)     # out of reach
            topo.add_node(2, 0.0, 10.0)      # in reach, detached below
            return DistancePropagation(topo, asymmetry=asymmetry)
        return make

    @pytest.mark.parametrize("admission", sorted(GHOST_ADMISSIONS))
    def test_verdicts_in_reach_out_of_reach_detached_and_walking_in(
        self, admission
    ):
        def script(sim, channel, modems, model):
            sense_all(channel, (0, 1, 2))               # caches warm
            channel.detach(2)                           # its MAC still asks
            GHOST_ADMISSIONS[admission](channel, GHOST)
            started = sense_all(channel, (0, 1, 2))
            sim.run(until=AIRTIME / 2)
            model.topology.move_node(1, 10.0, 5.0)      # walks into reach
            moved = sense_all(channel, (0, 1, 2))
            sim.run()
            return started, moved, sense_all(channel, (0, 1, 2))

        assert on_both_engines(script, self.model(), 3) == (
            [True, False, True],
            [True, True, True],
            [False, False, False],
        )

    @pytest.mark.parametrize("admission", sorted(GHOST_ADMISSIONS))
    def test_listener_out_of_reach_costs_no_exact_lookup(self, admission):
        sim = Simulator()
        model = self.model(asymmetry=0.15)()
        channel = Channel(sim, model, seeds=SeedSequence(1))
        for node in range(3):
            Modem(sim, channel, node_id=node)
        GHOST_ADMISSIONS[admission](channel, GHOST)
        checks = channel.carrier_checks
        assert sense_all(channel, (0, 1)) == [True, False]
        assert channel.carrier_checks == checks + 1
        assert (GHOST, 0) in channel.index.prr_memo
        assert (GHOST, 1) not in channel.index.prr_memo
        assert (GHOST, 1) not in model._perturbation    # no RNG derived


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

    def test_fast_path_cost_does_not_grow_with_n(self, monkeypatch):
        # The fast path counts one check per (source, listener) PRR it
        # actually looks up: transmitters on the air that are also in
        # the listener's carrier-source set.  At constant density that
        # is the same handful at 14, 50 and 256 nodes (measured 0.13,
        # 0.17, 0.18 — the 7x2 strip is nearly all edge), where a walk
        # over every transmitter on the air cost 0.50, 1.77, 9.20.
        per_query = {}
        for columns, rows in ((7, 2), (10, 5), (16, 16)):
            _, fast = beacon_flood(
                monkeypatch, Channel, columns=columns, rows=rows
            )
            per_query[columns * rows] = checks_per_query(fast)
        assert per_query[50] <= 1.5 * per_query[14]
        assert per_query[256] <= 1.5 * per_query[14]
        assert max(per_query.values()) < 1.0

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
