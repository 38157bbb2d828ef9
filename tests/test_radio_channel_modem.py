"""Tests for the shared channel, collisions, and the modem."""

import pytest

from repro.radio import (
    Channel,
    Modem,
    RadioParams,
    ReferenceChannel,
    TablePropagation,
)
from repro.sim import SeedSequence, Simulator


def make_net(links, n_nodes=3, channel_cls=Channel):
    sim = Simulator()
    channel = channel_cls(sim, TablePropagation(links), seeds=SeedSequence(1))
    modems = [Modem(sim, channel, node_id=i) for i in range(n_nodes)]
    return sim, channel, modems


class Sink:
    def __init__(self, modem):
        self.received = []
        modem.receive_callback = self._on_receive

    def _on_receive(self, payload, src, nbytes, link_dst):
        self.received.append((payload, src, nbytes, link_dst))


class TestRadioParams:
    def test_fragment_airtime(self):
        params = RadioParams()
        assert params.fragment_airtime(27) == pytest.approx((32 * 8) / 13_000.0)

    def test_oversized_fragment_rejected(self):
        params = RadioParams()
        with pytest.raises(ValueError):
            params.fragment_airtime(28)

    @pytest.mark.parametrize("size", [-1, -3, -28, 28])
    def test_fragment_size_outside_range_rejected(self, size):
        """A negative size indexes the airtime table from its end: -3
        used to price a 25-byte fragment."""
        with pytest.raises(ValueError, match=r"0\.\.27"):
            RadioParams().fragment_airtime(size)

    @pytest.mark.parametrize("size", [-1, -3, 28])
    def test_modem_refuses_fragment_size_outside_range(self, size):
        sim, channel, modems = make_net({(0, 1): 1.0})
        with pytest.raises(ValueError, match=r"0\.\.27"):
            modems[0].transmit_fragment("bad", size)
        modem = modems[0]
        assert not modem.transmitting
        assert (modem.fragments_sent, modem.bytes_sent) == (0, 0)
        assert modem.airtime_sent == 0.0


class TestChannelDelivery:
    def test_perfect_link_delivers(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        sink = Sink(modems[1])
        modems[0].transmit_fragment("hello", 20)
        sim.run()
        assert len(sink.received) == 1
        payload, src, nbytes, link_dst = sink.received[0]
        assert payload == "hello"
        assert src == 0
        assert nbytes == 20
        assert link_dst is None

    def test_zero_link_never_delivers(self):
        sim, channel, modems = make_net({(0, 1): 0.0})
        sink = Sink(modems[1])
        modems[0].transmit_fragment("hello", 20)
        sim.run()
        assert sink.received == []

    def test_lossy_link_statistics(self):
        losses = 0
        trials = 300
        sim, channel, modems = make_net({(0, 1): 0.5})
        sink = Sink(modems[1])
        for i in range(trials):
            sim.schedule(i * 1.0, modems[0].transmit_fragment, f"m{i}", 10)
        sim.run()
        delivered = len(sink.received)
        assert 0.35 * trials < delivered < 0.65 * trials

    def test_unicast_filtered_by_link_dst(self):
        sim, channel, modems = make_net({(0, 1): 1.0, (0, 2): 1.0})
        sink1, sink2 = Sink(modems[1]), Sink(modems[2])
        modems[0].transmit_fragment("to-1", 10, link_dst=1)
        sim.run()
        assert len(sink1.received) == 1
        assert sink2.received == []  # heard but filtered
        assert modems[2].fragments_received == 1  # energy was still spent

    def test_broadcast_reaches_all_in_range(self):
        sim, channel, modems = make_net({(0, 1): 1.0, (0, 2): 1.0})
        sink1, sink2 = Sink(modems[1]), Sink(modems[2])
        modems[0].transmit_fragment("bcast", 10)
        sim.run()
        assert len(sink1.received) == 1
        assert len(sink2.received) == 1

    def test_asymmetric_link_one_way(self):
        sim, channel, modems = make_net({(0, 1): 1.0})  # no (1, 0) entry
        sink0 = Sink(modems[0])
        modems[1].transmit_fragment("up", 10)
        sim.run()
        assert sink0.received == []


class TestCollisions:
    def test_overlapping_transmissions_collide(self):
        # 0 and 2 cannot hear each other (hidden terminals) but both
        # reach 1: simultaneous sends must corrupt both at 1.
        links = {(0, 1): 1.0, (2, 1): 1.0}
        sim, channel, modems = make_net(links)
        sink = Sink(modems[1])
        sim.schedule(0.0, modems[0].transmit_fragment, "a", 27)
        sim.schedule(0.001, modems[2].transmit_fragment, "b", 27)
        sim.run()
        assert sink.received == []
        assert channel.fragments_collided >= 2

    def test_non_overlapping_transmissions_ok(self):
        links = {(0, 1): 1.0, (2, 1): 1.0}
        sim, channel, modems = make_net(links)
        sink = Sink(modems[1])
        sim.schedule(0.0, modems[0].transmit_fragment, "a", 27)
        sim.schedule(1.0, modems[2].transmit_fragment, "b", 27)
        sim.run()
        assert len(sink.received) == 2

    def test_half_duplex_receiver_misses_while_transmitting(self):
        links = {(0, 1): 1.0, (1, 0): 1.0}
        sim, channel, modems = make_net(links, n_nodes=2)
        sink1 = Sink(modems[1])
        sim.schedule(0.0, modems[0].transmit_fragment, "a", 27)
        sim.schedule(0.001, modems[1].transmit_fragment, "b", 27)
        sim.run()
        assert sink1.received == []

    def test_modem_rejects_concurrent_transmit(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        modems[0].transmit_fragment("a", 27)
        with pytest.raises(RuntimeError):
            modems[0].transmit_fragment("b", 27)


class TestCarrierSense:
    def test_busy_during_audible_transmission(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        assert not channel.carrier_busy(1)
        modems[0].transmit_fragment("a", 27)
        assert channel.carrier_busy(1)
        sim.run()
        assert not channel.carrier_busy(1)

    def test_hidden_terminal_senses_idle(self):
        # 2 cannot hear 0, so it senses an idle channel mid-transmission.
        links = {(0, 1): 1.0, (2, 1): 1.0}
        sim, channel, modems = make_net(links)
        modems[0].transmit_fragment("a", 27)
        assert channel.carrier_busy(1)
        assert not channel.carrier_busy(2)
        sim.run()

    def test_weak_signal_below_threshold_not_sensed(self):
        links = {(0, 1): Channel.CARRIER_SENSE_THRESHOLD / 2}
        sim, channel, modems = make_net(links)
        modems[0].transmit_fragment("a", 27)
        assert not channel.carrier_busy(1)
        sim.run()


def queued(sim):
    """(time, name) of every pending kernel event, in run order."""
    return [
        (event.time, event.name)
        for event in sorted(sim.pending_events(), key=lambda e: (e.time, e.seq))
    ]


@pytest.mark.parametrize("channel_cls", [Channel, ReferenceChannel])
class TestEndOfAirtime:
    """A fragment's airtime ends in the event that finalizes its
    receptions (``ReferenceChannel``: one event per reception, then one
    for the sender, all at the same instant)."""

    def test_heard_fragment_costs_one_event_at_end_of_airtime(self, channel_cls):
        sim, channel, modems = make_net(
            {(0, 1): 1.0, (0, 2): 1.0}, channel_cls=channel_cls
        )
        sim.run(until=1.0)
        airtime = modems[0].transmit_fragment("a", 27)
        events = queued(sim)
        if channel_cls is Channel:
            assert [name for _, name in events] == ["channel.rx"]
        else:
            assert [name for _, name in events] == [
                "channel.rx", "channel.rx", "modem.txdone",
            ]
        assert {time for time, _ in events} == {1.0 + airtime}
        sim.run()
        assert sim.events_processed == len(events)

    def test_on_done_runs_after_every_delivery_at_the_same_instant(
        self, channel_cls
    ):
        sim, channel, modems = make_net(
            {(0, 1): 1.0, (0, 2): 1.0}, channel_cls=channel_cls
        )
        order = []
        for node in (1, 2):
            modems[node].receive_callback = (
                lambda payload, src, nbytes, dst, node=node:
                order.append(("deliver", node, sim.now))
            )
        airtime = modems[0].transmit_fragment(
            "a", 27, on_done=lambda: order.append(
                ("done", modems[0].transmitting, sim.now)
            )
        )
        sim.run()
        assert order == [
            ("deliver", 1, airtime), ("deliver", 2, airtime),
            ("done", False, airtime),
        ]

    def test_unheard_fragment_still_ends_its_airtime(self, channel_cls):
        sim, channel, modems = make_net({(0, 1): 0.0}, channel_cls=channel_cls)
        done = []
        airtime = modems[0].transmit_fragment(
            "a", 27, on_done=lambda: done.append(sim.now)
        )
        assert [name for _, name in queued(sim)] == ["modem.txdone"]
        assert 0 in channel._active
        sim.run()
        assert done == [airtime]
        assert not modems[0].transmitting
        assert 0 not in channel._active

    def test_sender_detached_mid_airtime_still_ends_it(self, channel_cls):
        sim, channel, modems = make_net({(0, 1): 1.0}, channel_cls=channel_cls)
        done = []
        airtime = modems[0].transmit_fragment(
            "a", 27, on_done=lambda: done.append(sim.now)
        )
        sim.schedule(airtime / 2, channel.detach, 0)
        sim.run()
        assert done == [airtime]
        assert not modems[0].transmitting
        assert 0 not in channel._active
        # Re-attached, it transmits again.
        channel.attach(modems[0])
        modems[0].transmit_fragment("b", 27)
        sim.run()
        assert not modems[0].transmitting


class TestModemStats:
    def test_tx_counters(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        modems[0].transmit_fragment("a", 20)
        sim.run()
        assert modems[0].fragments_sent == 1
        assert modems[0].bytes_sent == 20 + RadioParams.fragment_overhead

    def test_on_done_callback(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        done = []
        modems[0].transmit_fragment("a", 20, on_done=lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        assert done[0] == pytest.approx(RadioParams().fragment_airtime(20))

    def test_duplicate_attach_rejected(self):
        sim = Simulator()
        channel = Channel(sim, TablePropagation({}))
        Modem(sim, channel, node_id=5)
        with pytest.raises(ValueError):
            Modem(sim, channel, node_id=5)
