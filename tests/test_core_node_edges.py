"""Edge-case tests for DiffusionNode: pipeline semantics, config
switches, API misuse, and state cleanup."""

import pytest

from repro.core import (
    DiffusionConfig,
    DiffusionNode,
    DiffusionRouting,
    MessageType,
)
from repro.core.filter_api import GRADIENT_FILTER_PRIORITY
from repro.core.messages import make_data
from repro.naming import AttributeVector
from repro.naming.keys import ClassValue, Key
from repro.sim import Simulator
from repro.testbed import IdealNetwork


def build(n=2, config=None, connect=True):
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.01)
    nodes, apis = {}, {}
    for i in range(n):
        nodes[i] = DiffusionNode(
            sim, i, net.add_node(i),
            config=config or DiffusionConfig(reinforcement_jitter=0.05),
        )
        apis[i] = DiffusionRouting(nodes[i])
    if connect:
        for i in range(n - 1):
            net.connect(i, i + 1)
    return sim, net, nodes, apis


def sub_attrs():
    return AttributeVector.builder().eq(Key.TYPE, "x").build()


def pub_attrs():
    return AttributeVector.builder().actual(Key.TYPE, "x").build()


def sample(seq=0):
    return AttributeVector.builder().actual(Key.SEQUENCE, seq).build()


class TestFilterPipeline:
    def test_priority_order_high_first(self):
        sim, net, nodes, apis = build(1, connect=False)
        calls = []

        def make_cb(label):
            def cb(message, handle):
                calls.append(label)
                nodes[0].send_message(message, handle)
            return cb

        apis[0].add_filter(AttributeVector(), 120, make_cb("mid"))
        apis[0].add_filter(AttributeVector(), 200, make_cb("high"))
        apis[0].add_filter(AttributeVector(), 90, make_cb("low"))
        pub = apis[0].publish(pub_attrs())
        # Subscribe locally so the send has demand.
        apis[0].subscribe(sub_attrs(), lambda a, m: None)
        apis[0].send(pub, sample())
        assert calls[:3] == ["high", "mid", "low"]

    def test_filter_not_reinvoked_for_same_message(self):
        sim, net, nodes, apis = build(1, connect=False)
        calls = []

        def cb(message, handle):
            calls.append(message.unique_id)
            nodes[0].send_message(message, handle)

        apis[0].add_filter(AttributeVector(), 150, cb)
        apis[0].subscribe(sub_attrs(), lambda a, m: None)
        pub = apis[0].publish(pub_attrs())
        apis[0].send(pub, sample())
        assert len(calls) == len(set(calls))

    def test_dropping_filter_kills_message(self):
        sim, net, nodes, apis = build(2)
        received = []
        apis[0].subscribe(sub_attrs(), lambda a, m: received.append(a))
        # A filter at node 1 that swallows everything above the core.
        nodes[1].add_filter(AttributeVector(), 150, lambda m, h: None)
        pub = apis[1].publish(pub_attrs())
        sim.schedule(1.0, apis[1].send, pub, sample())
        sim.run(until=5.0)
        assert received == []

    def test_send_message_to_next_bypasses_lower_filters(self):
        sim, net, nodes, apis = build(2)
        seen_by_core = []
        original = nodes[1]._gradient_filter_callback

        def spy(message, handle):
            seen_by_core.append(message.msg_type)
            original(message, handle)

        nodes[1]._gradient_filter.callback = spy

        def passthrough(message, handle):
            if message.msg_type.is_data:
                # Straight to the radio: the gradient core at THIS node
                # never routes it.
                nodes[1].send_message_to_next(
                    message.forwarded_copy(None), handle
                )
            else:
                nodes[1].send_message(message, handle)

        nodes[1].add_filter(AttributeVector(), 150, passthrough)
        received = []
        apis[0].subscribe(sub_attrs(), lambda a, m: received.append(a))
        pub = apis[1].publish(pub_attrs())
        sim.schedule(1.0, apis[1].send, pub, sample())
        sim.run(until=5.0)
        assert MessageType.EXPLORATORY_DATA not in seen_by_core
        assert len(received) == 1  # still delivered: radio forward worked

    def test_reserved_priority_rejected(self):
        sim, net, nodes, apis = build(1, connect=False)
        with pytest.raises(ValueError):
            apis[0].add_filter(
                AttributeVector(), GRADIENT_FILTER_PRIORITY, lambda m, h: None
            )

    @pytest.mark.parametrize("priority", [1, GRADIENT_FILTER_PRIORITY - 1])
    def test_filter_below_core_rejected(self, priority):
        # The gradient filter matches every message and transmits it
        # itself: a filter below it would be registered and never run.
        sim, net, nodes, apis = build(1, connect=False)
        with pytest.raises(ValueError, match="never runs"):
            apis[0].add_filter(AttributeVector(), priority, lambda m, h: None)

    def test_remove_unknown_filter_returns_false(self):
        sim, net, nodes, apis = build(1, connect=False)
        handle = apis[0].add_filter(AttributeVector(), 150, lambda m, h: None)
        assert apis[0].remove_filter(handle)
        assert not apis[0].remove_filter(handle)

    def test_core_filter_cannot_be_removed(self):
        sim, net, nodes, apis = build(1, connect=False)
        core_handle = nodes[0]._gradient_filter.handle
        assert not nodes[0].remove_filter(core_handle)
        assert len(nodes[0]._filters) == 1


class TestApiEdges:
    def test_unsubscribe_unknown_handle(self):
        sim, net, nodes, apis = build(1, connect=False)
        from repro.core.api import SubscriptionHandle

        assert not apis[0].unsubscribe(
            SubscriptionHandle(handle_id=424242, node_id=0)
        )

    def test_unpublish_stops_sends(self):
        sim, net, nodes, apis = build(2)
        received = []
        apis[0].subscribe(sub_attrs(), lambda a, m: received.append(a))
        pub = apis[1].publish(pub_attrs())
        assert apis[1].unpublish(pub)
        sim.schedule(1.0, apis[1].send, pub, sample())
        sim.run(until=5.0)
        assert received == []
        assert not apis[1].unpublish(pub)

    def test_two_subscriptions_same_attrs_both_fire(self):
        sim, net, nodes, apis = build(2)
        a_hits, b_hits = [], []
        apis[0].subscribe(sub_attrs(), lambda a, m: a_hits.append(a))
        apis[0].subscribe(sub_attrs(), lambda a, m: b_hits.append(a))
        pub = apis[1].publish(pub_attrs())
        sim.schedule(1.0, apis[1].send, pub, sample())
        sim.run(until=5.0)
        assert len(a_hits) == 1
        assert len(b_hits) == 1

    def test_unsubscribe_one_of_two_keeps_entry_alive(self):
        sim, net, nodes, apis = build(2)
        keep_hits = []
        drop = apis[0].subscribe(sub_attrs(), lambda a, m: None)
        apis[0].subscribe(sub_attrs(), lambda a, m: keep_hits.append(a))
        apis[0].unsubscribe(drop)
        pub = apis[1].publish(pub_attrs())
        sim.schedule(1.0, apis[1].send, pub, sample())
        sim.run(until=5.0)
        assert len(keep_hits) == 1
        entry = nodes[0].gradients.entry_for(sub_attrs())
        assert entry.local_sink

    def test_shutdown_cancels_all_timers(self):
        sim, net, nodes, apis = build(2)
        apis[0].subscribe(sub_attrs(), lambda a, m: None)
        sim.run(until=1.0)
        nodes[0].shutdown()
        nodes[1].shutdown()
        before = sim.pending
        sim.run(until=500.0)
        # No periodic timers left: nothing new fired.
        assert sim.events_processed < 10_000

    def test_padding_bytes_accounted(self):
        sim, net, nodes, apis = build(2)
        sizes = []
        nodes[1].trace.subscribe(
            "diffusion.tx", lambda r: sizes.append(r.data["nbytes"])
        )
        apis[0].subscribe(sub_attrs(), lambda a, m: None)
        pub = apis[1].publish(pub_attrs())
        sim.schedule(1.0, apis[1].send, pub, sample(), 500)
        sim.run(until=5.0)
        data_sizes = [s for s in sizes if s > 400]
        assert data_sizes  # the padded message went out at padded size
