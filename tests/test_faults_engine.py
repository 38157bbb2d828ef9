"""Tests for the fault overlay and the FaultEngine's injection paths."""

import math

import pytest

from repro.core import DiffusionConfig
from repro.faults import (
    ClockSkew,
    EnergyBrownout,
    FaultEngine,
    FaultOverlayPropagation,
    FaultPlan,
    FragmentCorruption,
    LinkFlap,
    NodeCrash,
    Partition,
)
from repro.faults.scenarios import grid_halves
from repro.radio import DistancePropagation, ReferenceChannel, Topology
from repro.testbed import SensorNetwork
from tests.tracing import TraceCollector


def line_topology(n=4, spacing=12.0):
    topo = Topology()
    for i in range(n):
        topo.add_node(i, i * spacing, 0.0)
    return topo


def tight_config(**overrides):
    base = dict(
        interest_interval=10.0,
        interest_jitter=0.5,
        gradient_timeout=25.0,
        exploratory_interval=8.0,
        reinforced_timeout=20.0,
        reinforcement_jitter=0.3,
    )
    base.update(overrides)
    return DiffusionConfig(**base)


class TestOverlay:
    def _overlay(self):
        base = DistancePropagation(
            line_topology(), full_range=20.0, max_range=30.0, asymmetry=0.0
        )
        return FaultOverlayPropagation(base)

    def test_blocked_link_reads_zero_and_restores(self):
        overlay = self._overlay()
        assert overlay.link_prr(0, 1, 0.0) == 1.0
        overlay.cut("flap", ((0,), (1,)))
        assert overlay.link_prr(0, 1, 0.0) == 0.0
        assert overlay.link_prr(1, 0, 0.0) == 0.0  # both directions
        overlay.restore("flap")
        assert overlay.link_prr(0, 1, 0.0) == 1.0

    def test_partition_cuts_cross_group_links_only(self):
        overlay = self._overlay()
        overlay.cut("partition", [(0, 1), (2, 3)])
        assert overlay.link_prr(1, 2, 0.0) == 0.0
        assert overlay.link_prr(0, 1, 0.0) == 1.0
        assert overlay.link_prr(2, 3, 0.0) == 1.0
        overlay.restore("partition")
        assert overlay.link_prr(1, 2, 0.0) == 1.0

    def test_unlisted_nodes_straddle_partition(self):
        overlay = self._overlay()
        overlay.cut("partition", [(0,), (3,)])
        assert overlay.link_prr(0, 3, 0.0) == 0.0
        # Node 1 is in no group: it hears both sides.
        assert overlay.link_prr(0, 1, 0.0) == 1.0
        assert overlay.link_prr(1, 2, 0.0) == 1.0

    def test_every_mutation_bumps_epoch(self):
        overlay = self._overlay()
        epochs = [overlay.prr_epoch()]
        overlay.cut("flap", ((0,), (1,)))
        epochs.append(overlay.prr_epoch())
        overlay.restore("flap")
        epochs.append(overlay.prr_epoch())
        overlay.cut("partition", [(0,), (1,)])
        epochs.append(overlay.prr_epoch())
        overlay.restore("partition")
        epochs.append(overlay.prr_epoch())
        assert len(set(epochs)) == len(epochs)

    def test_fast_path_bound_and_window_honor_cut(self):
        overlay = self._overlay()
        overlay.cut("flap", ((0,), (1,)))
        assert overlay.link_prr_bound(0, 1) == 0.0
        prr, expiry = overlay.link_prr_window(0, 1, 0.0)
        assert prr == 0.0 and expiry == math.inf
        assert overlay.link_prr_bound(1, 2) > 0.0

    def test_restore_lifts_only_its_own_cut(self):
        overlay = self._overlay()
        overlay.cut(0, [(0, 1), (2, 3)])
        overlay.cut(1, [(0,), (1,)])
        overlay.restore(0)
        assert overlay.is_cut(0, 1)
        assert not overlay.is_cut(1, 2)
        overlay.restore(1)
        assert not overlay.is_cut(0, 1)


class TestEngine:
    def _network(self, **config_overrides):
        return SensorNetwork(
            line_topology(), seed=5, config=tight_config(**config_overrides)
        )

    def test_link_plan_installs_overlay_and_rebuilds_index(self):
        net = self._network()
        original = net.propagation
        engine = FaultEngine(
            net, FaultPlan((LinkFlap(a=0, b=1, at=5.0, down=2.0),))
        )
        assert isinstance(net.propagation, FaultOverlayPropagation)
        assert net.propagation.base is original
        assert net.channel.propagation is net.propagation
        assert net.channel.index.propagation is engine.overlay
        assert net.channel.index.audible_from(0) == [1, 2]

    def test_link_plan_on_reference_channel_needs_no_index(self):
        net = SensorNetwork(
            line_topology(2), seed=5, channel_cls=ReferenceChannel
        )
        engine = FaultEngine(
            net, FaultPlan((LinkFlap(a=0, b=1, at=5.0, down=2.0),))
        )
        assert type(net.channel) is ReferenceChannel
        assert net.channel.propagation is engine.overlay
        assert not hasattr(net.channel, "index")
        net.run(until=6.0)
        assert engine.overlay.is_cut(0, 1)
        modem = net.stack(0).modem
        if not modem.transmitting:
            modem.transmit_fragment("x", 10)
        assert not net.channel.carrier_busy(1)  # the only neighbor is cut off

    def test_crash_only_plan_skips_overlay(self):
        net = self._network()
        engine = FaultEngine(net, FaultPlan((NodeCrash(node=1, at=5.0),)))
        assert engine.overlay is None
        assert not isinstance(net.propagation, FaultOverlayPropagation)

    def test_invalid_plan_rejected_at_construction(self):
        from repro.faults import PlanError

        net = self._network()
        with pytest.raises(PlanError):
            FaultEngine(net, FaultPlan((NodeCrash(node=77, at=1.0),)))

    def test_flap_timeline_alternates_and_traces(self):
        net = self._network()
        engine = FaultEngine(
            net,
            FaultPlan(
                (LinkFlap(a=0, b=1, at=5.0, down=3.0, flaps=3, period=8.0),)
            ),
        )
        with TraceCollector(net.trace) as collector:
            net.run(until=40.0)
        assert [e["phase"] for e in engine.timeline] == [
            "inject", "heal", "inject", "heal", "inject", "heal",
        ]
        assert [e["t"] for e in engine.timeline] == [
            5.0, 8.0, 13.0, 16.0, 21.0, 24.0,
        ]
        assert len(collector.by_category("fault.inject")) == 3

    def test_partition_blocks_and_heals(self):
        net = self._network()
        engine = FaultEngine(
            net,
            FaultPlan(
                (Partition(groups=((0, 1), (2, 3)), at=5.0, heal_at=15.0),)
            ),
        )
        net.run(until=10.0)
        assert engine.overlay.is_cut(1, 2)
        assert not engine.overlay.is_cut(0, 1)
        net.run(until=20.0)
        assert not engine.overlay.is_cut(1, 2)

    def test_overlapping_partitions_heal_independently(self):
        # The second partition outlives the first: the first heal must
        # lift only the halves, never the 0 | 4 cut made after them.
        net = SensorNetwork(Topology.grid(4, 3, 15.0), seed=5,
                            config=tight_config())
        engine = FaultEngine(
            net,
            FaultPlan((
                Partition(groups=grid_halves(), at=10.0, heal_at=60.0),
                Partition(groups=((0,), (4,)), at=30.0, heal_at=90.0),
            )),
        )
        net.run(until=45.0)
        assert engine.overlay.is_cut(1, 2) and engine.overlay.is_cut(0, 4)
        net.run(until=70.0)
        assert not engine.overlay.is_cut(1, 2)
        assert engine.overlay.is_cut(0, 4)
        net.run(until=95.0)
        assert not engine.overlay.is_cut(0, 4)

    def test_flap_heal_leaves_the_partition_in_force(self):
        net = SensorNetwork(Topology.grid(4, 3, 15.0), seed=5,
                            config=tight_config())
        engine = FaultEngine(
            net,
            FaultPlan((
                Partition(groups=grid_halves(), at=10.0, heal_at=60.0),
                LinkFlap(a=0, b=1, at=20.0, down=5.0),
                LinkFlap(a=1, b=2, at=20.0, down=5.0),
            )),
        )
        net.run(until=22.0)
        assert engine.overlay.is_cut(0, 1) and engine.overlay.is_cut(1, 2)
        net.run(until=30.0)
        assert not engine.overlay.is_cut(0, 1)
        assert engine.overlay.is_cut(1, 2)      # the partition's cut
        net.run(until=65.0)
        assert not engine.overlay.is_cut(1, 2)

    def test_clock_skew_steps_engine_clock(self):
        net = self._network()
        engine = FaultEngine(
            net,
            FaultPlan(
                (ClockSkew(node=2, at=5.0, offset=1.5, drift_ppm=40.0),)
            ),
        )
        clock = engine.clock(2)
        assert engine.clock(2) is clock  # memoized
        net.run(until=10.0)
        assert clock.offset == pytest.approx(1.5)
        assert clock.drift_ppm == pytest.approx(40.0)
        assert engine.timeline[0]["kind"] == "clock-skew"

    def test_crash_and_reboot_round_trip(self):
        net = self._network()
        engine = FaultEngine(
            net,
            FaultPlan((NodeCrash(node=1, at=5.0, recover_at=12.0),)),
        )
        net.run(until=8.0)
        assert net.stack(1).modem.receive_callback is None
        net.run(until=20.0)
        assert net.stack(1).modem.receive_callback is not None
        phases = [e["phase"] for e in engine.timeline]
        assert phases == ["inject", "heal"]
        assert engine.timeline[1]["clear_state"] is True

    def test_corruption_drops_fragments_and_heals(self):
        from repro import AttributeVector, Key

        net = self._network()
        engine = FaultEngine(
            net,
            FaultPlan(
                (FragmentCorruption(node=1, at=2.0, duration=20.0, rate=1.0),)
            ),
        )
        # Interest flooding from a sink is enough inbound traffic for
        # node 1 to lose fragments to the corruption window.
        net.api(0).subscribe(
            AttributeVector.builder().eq(Key.TYPE, "t").build(),
            lambda attrs, msg: None,
        )
        with TraceCollector(net.trace) as collector:
            net.run(until=30.0)
        assert engine.fragments_corrupted > 0
        assert net.stack(1).frag.inbound_filter is None  # healed
        reasons = {r.data["reason"] for r in collector.by_category("path.drop")}
        assert "fault-corruption" in reasons

    def test_overlapping_corruption_windows_clear_only_their_own(self):
        net = SensorNetwork(Topology.grid(4, 3, 15.0), seed=5,
                            config=tight_config())
        FaultEngine(
            net,
            FaultPlan((
                FragmentCorruption(node=5, at=10.0, duration=50.0, rate=0.5),
                FragmentCorruption(node=5, at=30.0, duration=60.0, rate=0.5),
            )),
        )
        frag = net.stack(5).frag
        net.run(until=20.0)
        first = frag.inbound_filter
        net.run(until=40.0)
        second = frag.inbound_filter
        assert first is not None and second is not None
        assert second is not first      # the later window replaced it
        net.run(until=70.0)
        assert frag.inbound_filter is second    # the first heal left it
        net.run(until=95.0)
        assert frag.inbound_filter is None

    def test_brownout_defers_instead_of_raising(self):
        # A 10% duty cycle with traffic flowing through the MAC: any
        # transmission attempt during a sleep slice must defer to the
        # next awake slice, never hit the modem's sleeping guard.
        net = self._network()
        engine = FaultEngine(
            net,
            FaultPlan(
                (EnergyBrownout(node=1, at=5.0, duration=15.0,
                                duty_cycle=0.1),)
            ),
        )
        for node in range(4):
            net.stack(node).modem.receive_callback = lambda *args: None
        modem = net.stack(1).modem
        sent = []  # (time, sleeping) at each fragment node 1 puts on air
        transmit = modem.transmit_fragment

        def recorded(*args, **kwargs):
            sent.append((net.sim.now, modem.sleeping))
            return transmit(*args, **kwargs)

        modem.transmit_fragment = recorded
        # One send inside each of three sleep slices; the MAC's frame
        # wakes the radio at 6.0, 8.0 and 13.0.
        for at in (5.3, 7.4, 12.5):
            net.sim.schedule_at(at, net.stack(1).mac.enqueue, "x", 20)
        profiler = net.sim.enable_profiler()
        net.run(until=30.0)
        sites = {site["site"]: site["count"]
                 for site in profiler.snapshot()["sites"]}
        assert sites.get("dmac.defer", 0) >= 3
        assert [sleeping for _, sleeping in sent] == [False] * 3
        for (time, _), wake in zip(sent, (6.0, 8.0, 13.0)):
            assert wake <= time < wake + 0.1
        mac = net.stack(1).mac
        assert mac.duty_cycle == 1.0 and modem.sleeping is False
        # The engine shadows no MAC method: the MAC runs as its class says.
        assert not [name for name in vars(mac)
                    if callable(getattr(type(mac), name, None))]
        assert engine.timeline[-1]["phase"] == "heal"

    def test_brownout_defer_follows_the_wake_under_reversed_ties(self):
        # Deferred attempts land just after a frame start; whatever the
        # tie order, they find the radio awake and do not re-defer
        # forever.
        from tests.test_pins import pins

        with pins.reversed_ties():
            net = self._network()
            FaultEngine(
                net,
                FaultPlan(
                    (EnergyBrownout(node=1, at=5.0, duration=15.0,
                                    duty_cycle=0.1),)
                ),
            )
            for node in range(4):
                net.stack(node).modem.receive_callback = lambda *args: None
            for at in (5.3, 7.4, 9.9):
                net.sim.schedule_at(at, net.stack(1).mac.enqueue, "x", 20)
            profiler = net.sim.enable_profiler()
            net.sim.run(until=30.0, max_events=100_000)
        sites = {site["site"]: site["count"]
                 for site in profiler.snapshot()["sites"]}
        assert net.sim.now == 30.0
        assert sites["dmac.defer"] >= 3
        assert net.stack(1).modem.fragments_sent == 3

    def test_overlapping_brownouts_hold_the_least_duty_cycle(self):
        net = self._network()
        mac = net.stack(1).mac
        mac.set_duty_cycle(0.5)
        FaultEngine(
            net,
            FaultPlan((
                EnergyBrownout(node=1, at=10.0, duration=20.0, duty_cycle=0.3),
                EnergyBrownout(node=1, at=15.0, duration=10.0, duty_cycle=0.1),
                EnergyBrownout(node=1, at=40.0, duration=5.0, duty_cycle=0.8),
            )),
        )
        duties = []
        for t in (5.0, 12.0, 20.0, 27.0, 35.0, 42.0, 50.0):
            net.run(until=t)
            duties.append(mac.duty_cycle)
        # 0.5 is the MAC's own; the 0.8 brownout leaves it lower.
        assert duties == [0.5, 0.3, 0.1, 0.3, 0.5, 0.5, 0.5]

    def test_brownout_heal_stops_the_schedule(self):
        net = self._network()
        FaultEngine(
            net,
            FaultPlan((EnergyBrownout(node=1, at=5.0, duration=5.0,
                                      duty_cycle=0.2),)),
        )
        profiler = net.sim.enable_profiler()
        net.run(until=10.0)
        before = {site["site"]: site["count"]
                  for site in profiler.snapshot()["sites"]}
        net.run(until=30.0)
        after = {site["site"]: site["count"]
                 for site in profiler.snapshot()["sites"]}
        # Two frame edges a second while browned out; the heal at 10.0
        # cancels the next one and schedules none.
        assert before["dmac.schedule"] >= 9
        assert after["dmac.schedule"] == before["dmac.schedule"]
        assert net.stack(1).modem.sleeping is False

    def test_timeline_replays_identically(self):
        def run():
            net = self._network()
            engine = FaultEngine(
                net,
                FaultPlan(
                    (
                        NodeCrash(node=1, at=5.0, recover_at=12.0),
                        LinkFlap(a=2, b=3, at=8.0, down=4.0, flaps=2),
                        FragmentCorruption(node=2, at=3.0, duration=10.0,
                                           rate=0.7),
                    )
                ),
            )
            net.run(until=30.0)
            return engine.timeline, engine.fragments_corrupted

        assert run() == run()
