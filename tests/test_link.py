"""Tests for fragmentation/reassembly."""

import gc
import random
from types import SimpleNamespace
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.link import Fragment, FragmentationLayer, ReassemblyExpiry
from repro.link import frag as frag_module
from repro.mac import CsmaMac
from repro.radio import Channel, Modem, TablePropagation
from repro.sim import SeedSequence, Simulator, TraceBus


def make_frag_net(links, n_nodes=2):
    sim = Simulator()
    channel = Channel(sim, TablePropagation(links), seeds=SeedSequence(1))
    layers = []
    for i in range(n_nodes):
        modem = Modem(sim, channel, node_id=i)
        mac = CsmaMac(sim, modem, rng=random.Random(50 + i))
        layers.append(FragmentationLayer(sim, mac, node_id=i))
    return sim, channel, layers


class Collector:
    def __init__(self, layer):
        self.messages = []
        layer.deliver_callback = lambda msg, src, nbytes: self.messages.append(
            (msg, src, nbytes)
        )


class TestFragmentationMath:
    def test_fragments_for(self):
        sim, channel, layers = make_frag_net({(0, 1): 1.0})
        assert layers[0].fragments_for(27) == 1
        assert layers[0].fragments_for(28) == 2
        assert layers[0].fragments_for(112) == 5  # paper's event size
        assert layers[0].fragments_for(127) == 5

    def test_invalid_size_rejected(self):
        sim, channel, layers = make_frag_net({(0, 1): 1.0})
        with pytest.raises(ValueError):
            layers[0].fragments_for(0)


class TestReassembly:
    def test_small_message_single_fragment(self):
        sim, channel, layers = make_frag_net({(0, 1): 1.0})
        out = Collector(layers[1])
        layers[0].send_message("short", 20)
        sim.run()
        assert out.messages == [("short", 0, 20)]

    def test_multi_fragment_message_reassembled(self):
        sim, channel, layers = make_frag_net({(0, 1): 1.0})
        out = Collector(layers[1])
        layers[0].send_message("event", 112)
        sim.run()
        assert len(out.messages) == 1
        msg, src, nbytes = out.messages[0]
        assert msg == "event"
        assert nbytes == 112

    def test_lost_fragment_loses_whole_message(self):
        sim, channel, layers = make_frag_net({(0, 1): 1.0})
        out = Collector(layers[1])
        # Drop exactly one mid-message fragment at the receiving modem.
        dropped = []
        original = layers[1].on_fragment

        def lossy(fragment, src):
            if fragment.index == 2 and not dropped:
                dropped.append(fragment)
                return
            original(fragment, src)

        layers[1].on_fragment = lossy
        layers[1].mac.modem.receive_callback = (
            lambda payload, src, nbytes, link_dst: lossy(payload, src)
        )
        layers[0].send_message("event", 112)
        sim.run(until=100.0)
        assert out.messages == []
        assert layers[1].messages_incomplete == 1

    def test_duplicate_fragment_ignored(self):
        sim, channel, layers = make_frag_net({(0, 1): 1.0})
        out = Collector(layers[1])
        layers[0].send_message("event", 60)  # 3 fragments

        # Duplicate every fragment at the receiver.
        original_cb = layers[1].mac.modem.receive_callback

        def duplicate(payload, src, nbytes, link_dst):
            original_cb(payload, src, nbytes, link_dst)
            original_cb(payload, src, nbytes, link_dst)

        layers[1].mac.modem.receive_callback = duplicate
        sim.run()
        assert len(out.messages) == 1

    def test_interleaved_messages_from_two_senders(self):
        links = {(0, 2): 1.0, (1, 2): 1.0, (0, 1): 1.0, (1, 0): 1.0}
        sim, channel, layers = make_frag_net(links, n_nodes=3)
        out = Collector(layers[2])
        layers[0].send_message("from-0", 80)
        layers[1].send_message("from-1", 80)
        sim.run()
        assert sorted(m for m, _, _ in out.messages) == ["from-0", "from-1"]

    def test_reassembly_timeout_cleans_state(self):
        sim, channel, layers = make_frag_net({(0, 1): 1.0})
        # Inject only one fragment of a 3-fragment message by hand.
        from repro.link.frag import Fragment

        frag = Fragment(message_id=(0, 1), index=0, count=3, nbytes=27,
                        message="x")
        layers[1].on_fragment(frag, src=0)
        assert layers[1].partial_count == 1
        sim.run(until=frag_module.REASSEMBLY_TIMEOUT + 1.0)
        assert layers[1].partial_count == 0
        assert layers[1].messages_incomplete == 1

    def test_message_counter_distinguishes_messages(self):
        sim, channel, layers = make_frag_net({(0, 1): 1.0})
        out = Collector(layers[1])
        layers[0].send_message("a", 50)
        layers[0].send_message("b", 50)
        sim.run()
        assert sorted(m for m, _, _ in out.messages) == ["a", "b"]

    def test_layer_makes_its_own_expiry_unless_handed_one(self):
        sim = Simulator()
        alone = FragmentationLayer(sim, _stub_mac(), 0)
        assert isinstance(alone.expiry, ReassemblyExpiry)
        shared = ReassemblyExpiry(sim)
        a = FragmentationLayer(sim, _stub_mac(), 1, expiry=shared)
        b = FragmentationLayer(sim, _stub_mac(), 2, expiry=shared)
        assert a.expiry is b.expiry is shared


class TestCollectorSkipsReassemblyState:
    def test_fifo_entries_are_untracked_after_a_collection(self):
        """An entry names its layer by slot, not by reference: it holds
        only numbers and a message id, so a collection untracks it."""
        sim, channel, layers = make_frag_net({(0, 1): 1.0})
        for counter in (1, 2):
            layers[1].on_fragment(Fragment(
                message_id=(0, counter), index=0, count=3, nbytes=27,
                message="x",
            ), src=0)
        fifo = layers[1].expiry._fifo
        assert len(fifo) == 2
        # A collection may reach an entry before the message id tuple
        # inside it, and untracks a tuple only once its items are; the
        # second pass finds every item untracked.
        gc.collect()
        gc.collect()
        assert not any(gc.is_tracked(entry) for entry in fifo)


# -- one expiry FIFO against one timer per partial message -------------------

TIMEOUT = 2.0
NODES = 3
#: message id -> fragment count; few ids, so arrivals interleave,
#: duplicate, and re-open a message after it completed or expired
MESSAGES = {(9, 1): 2, (9, 2): 3, (8, 1): 2, (8, 2): 3}


def _stub_mac():
    return SimpleNamespace(modem=SimpleNamespace(receive_callback=None))


def _fragment(message_id, index):
    count = MESSAGES[message_id]
    return Fragment(
        message_id=message_id, index=index % count, count=count, nbytes=10,
        message=SimpleNamespace(trace_id=f"{message_id[0]}.{message_id[1]}"),
    )


class TimerPerMessage:
    """Reassembly with one kernel timer per partial message, cancelled
    on completion and on reset: the model the shared FIFO must match."""

    def __init__(self, sim, node_id, delivered, expired):
        self.sim, self.node_id = sim, node_id
        self.delivered, self.expired = delivered, expired
        self.partial = {}
        self.messages_incomplete = 0

    def on_fragment(self, fragment, src):
        state = self.partial.get(fragment.message_id)
        if state is None:
            timer = self.sim.schedule(TIMEOUT, self._expire, fragment)
            state = self.partial[fragment.message_id] = (set(), timer)
        indices, timer = state
        indices.add(fragment.index)
        if len(indices) == fragment.count:
            timer.cancel()
            del self.partial[fragment.message_id]
            self.delivered.append(
                (self.sim.now, self.node_id, fragment.message.trace_id)
            )

    def _expire(self, fragment):
        if self.partial.pop(fragment.message_id, None) is not None:
            self.messages_incomplete += 1
            self.expired.append(
                (self.sim.now, self.node_id, fragment.message.trace_id)
            )

    def reset(self):
        for _, timer in self.partial.values():
            timer.cancel()
        self.partial.clear()


def _run(steps, build):
    """Apply ``steps`` — (delay since the previous step, operation) —
    to the layers ``build(sim, delivered, expired)`` returns; every step
    is scheduled before the run, as arrivals from outside the stack."""
    sim = Simulator()
    delivered, expired = [], []
    layers = build(sim, delivered, expired)
    pending_expiries = []

    def apply(op):
        if op[0] == "reset":
            layers[op[1]].reset()
        else:
            _, nodes, message_id, index = op
            # One broadcast fragment reaching several nodes in one event.
            for node in nodes:
                layers[node].on_fragment(_fragment(message_id, index), src=9)
        pending_expiries.append(sum(
            event.name == "frag.expire" for event in sim.pending_events()
        ))

    now = 0.0
    for delay, op in steps:
        now += delay
        sim.schedule_at(now, apply, op)
    sim.run(until=now + 3 * TIMEOUT)
    return delivered, expired, [layer.messages_incomplete for layer in layers], pending_expiries


def _fifo_layers(sim, delivered, expired):
    bus = TraceBus()
    bus.subscribe("path.drop", lambda record: expired.append(
        (record.time, record.node, record.data["trace"])
    ))
    expiry = ReassemblyExpiry(sim)
    layers = []
    for node in range(NODES):
        layer = FragmentationLayer(sim, _stub_mac(), node, trace=bus, expiry=expiry)
        layer.deliver_callback = (
            lambda message, src, nbytes, node=node:
            delivered.append((sim.now, node, message.trace_id))
        )
        layers.append(layer)
    return layers


def _model_layers(sim, delivered, expired):
    return [TimerPerMessage(sim, node, delivered, expired) for node in range(NODES)]


_operation = st.one_of(
    st.tuples(
        st.just("fragment"),
        st.lists(st.integers(0, NODES - 1), min_size=1, max_size=NODES, unique=True),
        st.sampled_from(sorted(MESSAGES)),
        st.integers(0, 2),
    ),
    st.tuples(st.just("reset"), st.integers(0, NODES - 1)),
)


class TestSharedExpiryProperties:
    @given(st.lists(
        st.tuples(st.sampled_from((0.0, 0.5, 1.0, 1.5, TIMEOUT)), _operation),
        max_size=40,
    ))
    @settings(max_examples=300, deadline=None)
    def test_fifo_matches_a_timer_per_message(self, steps):
        """Interleaved, missing, duplicate and late fragments (arrivals
        land on exact expiry instants: every delay is a multiple of 0.5)
        and resets at random times: the same deliveries, the same
        incomplete counts, the same ordered expiries, and never more
        than one pending ``frag.expire``."""
        with mock.patch.object(frag_module, "REASSEMBLY_TIMEOUT", TIMEOUT):
            delivered, expired, incomplete, pending = _run(steps, _fifo_layers)
        want_delivered, want_expired, want_incomplete, _ = _run(
            steps, _model_layers
        )
        assert delivered == want_delivered
        assert expired == want_expired
        assert incomplete == want_incomplete
        assert max(pending, default=0) <= 1
