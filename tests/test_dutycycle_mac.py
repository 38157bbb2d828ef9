"""Tests for the duty-cycled CSMA MAC."""

import random

import pytest

from repro.energy import radio_energy
from repro.mac import DutyCycledCsmaMac, Mac
from repro.radio import Channel, Modem, TablePropagation
from repro.sim import SeedSequence, Simulator


def make_net(duty_cycle, n_nodes=2, links=None):
    sim = Simulator()
    channel = Channel(
        sim, TablePropagation(links or {(0, 1): 1.0}), seeds=SeedSequence(1)
    )
    modems, macs = [], []
    for i in range(n_nodes):
        modem = Modem(sim, channel, node_id=i)
        mac = DutyCycledCsmaMac(
            sim, modem, duty_cycle=duty_cycle, rng=random.Random(40 + i),
        )
        modems.append(modem)
        macs.append(mac)
    return sim, channel, modems, macs


class Sink:
    def __init__(self, modem):
        self.received = []
        modem.receive_callback = lambda p, s, n, d: self.received.append(p)


class TestSchedule:
    def test_awake_windows(self):
        sim, channel, modems, macs = make_net(0.2)
        mac = macs[0]
        assert mac.is_awake(0.0)
        assert mac.is_awake(0.19)
        assert not mac.is_awake(0.21)
        assert mac.is_awake(1.05)

    def test_next_wakeup(self):
        sim, channel, modems, macs = make_net(0.2)
        mac = macs[0]
        assert mac.next_wakeup(0.1) == pytest.approx(0.1)  # already awake
        assert mac.next_wakeup(0.5) == pytest.approx(1.0)

    def test_window_time_left(self):
        sim, channel, modems, macs = make_net(0.2)
        mac = macs[0]
        assert mac.window_time_left(0.05) == pytest.approx(0.15)
        assert mac.window_time_left(0.5) == 0.0

    def test_invalid_parameters(self):
        sim = Simulator()
        channel = Channel(sim, TablePropagation({}))
        modem = Modem(sim, channel, node_id=0)
        with pytest.raises(ValueError):
            DutyCycledCsmaMac(sim, modem, duty_cycle=0.0)

    def test_full_duty_cycle_never_sleeps(self):
        sim, channel, modems, macs = make_net(1.0)
        sink = Sink(modems[1])
        macs[0].enqueue("x", 20)
        sim.run(until=5.0)
        assert sink.received == ["x"]
        assert not modems[0].sleeping

    def test_mac_carries_its_duty_cycle(self):
        """The energy model prices idle listening at the MAC's duty
        cycle; a plain MAC always listens."""
        sim, channel, modems, macs = make_net(0.25)
        assert macs[0].duty_cycle == 0.25
        assert Mac.duty_cycle == 1.0


class TestDeferral:
    def test_fragments_delivered_inside_windows(self):
        sim, channel, modems, macs = make_net(0.2)
        sink = Sink(modems[1])
        # Enqueue mid-sleep: must be deferred, not lost.
        sim.schedule(0.5, macs[0].enqueue, "deferred", 20)
        sim.run(until=5.0)
        assert sink.received == ["deferred"]
        assert macs[0].deferred_to_window >= 1

    def test_bulk_traffic_survives_low_duty_cycle(self):
        sim, channel, modems, macs = make_net(0.2)
        sink = Sink(modems[1])
        for i in range(20):
            sim.schedule(i * 0.3, macs[0].enqueue, f"m{i}", 27)
        sim.run(until=60.0)
        assert len(sink.received) == 20

    def test_sleeping_receiver_misses_unsynchronized_sender(self):
        """A full-duty sender talking to a 10% receiver with a different
        schedule loses most fragments — why schedules must be shared."""
        sim = Simulator()
        channel = Channel(sim, TablePropagation({(0, 1): 1.0}),
                          seeds=SeedSequence(1))
        sender_modem = Modem(sim, channel, node_id=0)
        sender = DutyCycledCsmaMac(sim, sender_modem, duty_cycle=1.0,
                                   rng=random.Random(1))
        receiver_modem = Modem(sim, channel, node_id=1)
        receiver = DutyCycledCsmaMac(sim, receiver_modem, duty_cycle=0.1,
                                     rng=random.Random(2))
        sink = Sink(receiver_modem)
        for i in range(50):
            sim.schedule(i * 0.35, sender.enqueue, f"m{i}", 20)
        sim.run(until=30.0)
        assert len(sink.received) < 25  # most fragments hit a sleeping radio

    @pytest.mark.parametrize("size", [-1, 28])
    def test_enqueue_refuses_a_size_the_radio_cannot_send(self, size):
        """The MAC looked the size up in the airtime table itself, so a
        28-byte fragment raised a bare ``IndexError`` from inside
        ``sim.run``, and -1 the modem's refusal, also inside the run."""
        sim, channel, modems, macs = make_net(0.5)
        sink = Sink(modems[1])
        with pytest.raises(ValueError, match=r"0\.\.27"):
            macs[0].enqueue("bad", size)
        sim.run(until=5.0)
        assert macs[0].queue_depth == 0 and macs[0].stats.enqueued == 0
        assert modems[0].fragments_sent == 0 and sink.received == []

    def test_transmission_never_starts_while_asleep(self):
        sim, channel, modems, macs = make_net(0.2)
        times = []
        original = modems[0].transmit_fragment

        def spy(payload, nbytes, link_dst=None, on_done=None):
            times.append(sim.now)
            return original(payload, nbytes, link_dst, on_done)

        modems[0].transmit_fragment = spy
        for i in range(10):
            sim.schedule(i * 0.7, macs[0].enqueue, f"m{i}", 27)
        sim.run(until=30.0)
        for t in times:
            assert macs[0].is_awake(t)


class TestEnergySavings:
    def test_duty_cycle_cuts_total_energy(self):
        def total_energy(duty):
            sim, channel, modems, macs = make_net(duty)
            Sink(modems[1])
            for i in range(10):
                sim.schedule(i * 1.0, macs[0].enqueue, f"m{i}", 20)
            sim.run(until=30.0)
            return sum(
                radio_energy(m.airtime_sent, m.airtime_received,
                             mac.duty_cycle, 30.0).total
                for m, mac in zip(modems, macs)
            )

        assert total_energy(0.1) < total_energy(1.0) * 0.3
