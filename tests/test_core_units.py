"""Unit tests for diffusion core data structures."""

import dataclasses
import gc
import pickle

import pytest

from repro.core import (
    DataCache,
    DiffusionConfig,
    DiffusionNode,
    GradientTable,
    Message,
    MessageType,
)
from repro.core.filter_api import Filter, GRADIENT_FILTER_PRIORITY
from repro.core.messages import make_data, make_interest, make_reinforcement
from repro.naming import AttributeVector
from repro.naming.keys import ClassValue, Key
from repro.sim import Simulator, TraceBus, TraceCollector


def light_interest() -> AttributeVector:
    return AttributeVector.builder().eq(Key.TYPE, "light").actual(Key.INTERVAL, 2000).build()


def light_data(seq=0) -> AttributeVector:
    return AttributeVector.builder().actual(Key.TYPE, "light").actual(Key.SEQUENCE, seq).build()


class TestDiffusionConfig:
    def test_defaults_valid(self):
        DiffusionConfig().validate()

    def test_paper_rates(self):
        config = DiffusionConfig()
        assert config.interest_interval == 60.0
        assert config.exploratory_interval == 60.0
        assert config.exploratory_every is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interest_interval": 0.0},
            {"exploratory_every": 0},
            {"gradient_timeout": 10.0},
            {"cache_capacity": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DiffusionConfig(**kwargs).validate()


class TestMessage:
    def test_unique_ids_increase(self):
        a = make_interest(light_interest(), origin=1)
        b = make_interest(light_interest(), origin=1)
        assert a.unique_id != b.unique_id

    def test_nbytes_includes_header_and_attrs(self):
        msg = make_data(light_data(), origin=1, exploratory=False, header_bytes=24)
        assert msg.nbytes > 24
        padded = make_data(
            light_data(), origin=1, exploratory=False, header_bytes=24,
            padding_bytes=50,
        )
        assert padded.nbytes == msg.nbytes + 50

    def test_matching_attrs_adds_class(self):
        msg = make_interest(light_interest(), origin=1)
        effective = msg.matching_attrs()
        assert effective.value_of(Key.CLASS) == int(ClassValue.INTEREST)

    def test_exploratory_class_value(self):
        msg = make_data(light_data(), origin=1, exploratory=True)
        assert msg.msg_type is MessageType.EXPLORATORY_DATA
        assert msg.matching_attrs().value_of(Key.CLASS) == int(ClassValue.EXPLORATORY)

    def test_forwarded_copy_keeps_identity(self):
        msg = make_data(light_data(), origin=1, exploratory=False)
        fwd = msg.forwarded_copy(next_hop=7)
        assert fwd.unique_id == msg.unique_id
        assert fwd.next_hop == 7
        assert msg.next_hop is None

    def test_reinforcement_fields(self):
        msg = make_reinforcement(
            positive=True,
            interest_attrs=light_interest(),
            interest_digest=b"x" * 20,
            data_origin=5,
            origin=2,
            next_hop=3,
        )
        assert msg.msg_type is MessageType.POSITIVE_REINFORCEMENT
        assert msg.data_origin == 5
        assert msg.next_hop == 3

    def test_is_data_property(self):
        assert MessageType.DATA.is_data
        assert MessageType.EXPLORATORY_DATA.is_data
        assert not MessageType.INTEREST.is_data


def full_message() -> Message:
    """A message with every field away from its default."""
    message = Message(
        msg_type=MessageType.EXPLORATORY_DATA,
        attrs=light_data(seq=9),
        origin=4,
        msg_id=77,
        last_hop=3,
        next_hop=5,
        interest_digest=b"d" * 20,
        data_origin=4,
        push_attrs=light_interest(),
        header_bytes=30,
        padding_bytes=11,
        hop_count=2,
        parent_trace="1.2",
    )
    message.matching_attrs()
    defaults = Message(MessageType.INTEREST, AttributeVector(), 0, msg_id=1)
    for f in dataclasses.fields(Message):
        assert getattr(message, f.name) != getattr(defaults, f.name), f.name
    return message


class TestHopCopy:
    """Derived state lives on the message; hop copies carry it and
    attribute rewrites (``dataclasses.replace``) reset it."""

    def test_copies_every_field(self):
        message = full_message()
        copy = message.hop_copy()
        assert copy is not message
        reference = dataclasses.replace(message)
        for f in dataclasses.fields(Message):
            if f.init:
                assert getattr(copy, f.name) == getattr(reference, f.name), f.name
        assert vars(copy).keys() == vars(message).keys()
        assert copy.msg_id == message.msg_id == 77
        assert copy._matching_attrs is message._matching_attrs is not None

    def test_forwarded_copy_matches_replace(self):
        message = full_message()
        forwarded = message.forwarded_copy(next_hop=8)
        assert forwarded == dataclasses.replace(message, next_hop=8, hop_count=3)
        assert forwarded.matching_attrs() is message.matching_attrs()
        assert (message.next_hop, message.hop_count) == (5, 2)

    def test_copy_draws_no_message_id(self):
        message = full_message()
        before = make_interest(light_interest(), origin=1).msg_id
        message.hop_copy().forwarded_copy(None)
        assert make_interest(light_interest(), origin=1).msg_id == before + 1

    def test_rewriting_attrs_rebuilds_matching_vector(self):
        message = full_message()
        rewritten = dataclasses.replace(message, attrs=light_data(seq=1))
        assert rewritten._matching_attrs is None
        effective = rewritten.matching_attrs()
        assert effective.value_of(Key.SEQUENCE) == 1
        assert effective.value_of(Key.CLASS) == int(ClassValue.EXPLORATORY)
        assert message.matching_attrs().value_of(Key.SEQUENCE) == 9

    def test_changing_type_rebuilds_matching_vector(self):
        message = full_message()
        plain = dataclasses.replace(message, msg_type=MessageType.DATA)
        assert plain.matching_attrs().value_of(Key.CLASS) == int(ClassValue.DATA)

    def test_pickle_leaves_the_cache_behind(self):
        cold = dataclasses.replace(full_message())
        warm = dataclasses.replace(cold)
        warm.matching_attrs()
        assert cold._matching_attrs is None
        assert pickle.dumps(warm) == pickle.dumps(cold)
        assert b"_matching_attrs" not in pickle.dumps(warm)
        restored = pickle.loads(pickle.dumps(warm))
        assert restored == warm and restored._matching_attrs is None
        assert restored.matching_attrs() == warm.matching_attrs()

    @pytest.mark.parametrize("msg_type", list(MessageType))
    def test_class_value_table_covers_every_type(self, msg_type):
        message = Message(msg_type, light_data(), origin=1)
        assert message.matching_attrs().value_of(Key.CLASS) == int(
            msg_type.class_value
        )
        assert msg_type.class_value in ClassValue


class _RecordingTransport:
    deliver_callback = None

    def __init__(self):
        self.sent = []

    def send_message(self, message, nbytes, next_hop):
        self.sent.append((message, nbytes, next_hop))


class TestTransmitSizing:
    @pytest.mark.parametrize("traced", [False, True])
    def test_one_size_read_per_transmission(self, monkeypatch, traced):
        reads = []
        size_of = Message.nbytes.fget
        monkeypatch.setattr(
            Message,
            "nbytes",
            property(lambda message: reads.append(message) or size_of(message)),
        )
        transport = _RecordingTransport()
        bus = TraceBus()
        node = DiffusionNode(Simulator(), 1, transport, trace=bus)
        message = make_data(light_data(), origin=1, exploratory=True, padding_bytes=40)
        expected = size_of(message)
        with TraceCollector(bus) if traced else TraceCollector(TraceBus()) as seen:
            node._transmit(message)
        assert reads == [message]
        assert transport.sent == [(message, expected, None)]
        assert node.stats.bytes_sent == expected
        assert node.stats.messages_sent == 1
        assert node.stats.bytes_by_type[MessageType.EXPLORATORY_DATA] == expected
        assert node.stats.messages_by_type[MessageType.EXPLORATORY_DATA] == 1
        assert [r.data["nbytes"] for r in seen.by_category("diffusion.tx")] == (
            [expected] if traced else []
        )


class TestDataCache:
    def test_first_seen_false_then_true(self):
        cache = DataCache()
        assert not cache.seen_before(("a", 1), now=0.0)
        assert cache.seen_before(("a", 1), now=1.0)

    def test_expiry(self):
        cache = DataCache(timeout=10.0)
        cache.seen_before("k", now=0.0)
        assert not cache.seen_before("k", now=11.0)

    def test_capacity_eviction_fifo(self):
        cache = DataCache(capacity=2, timeout=100.0)
        cache.seen_before("a", 0.0)
        cache.seen_before("b", 0.0)
        cache.seen_before("c", 0.0)  # evicts "a"
        assert not cache.contains("a", 0.0)
        assert cache.contains("b", 0.0)
        assert cache.contains("c", 0.0)

    def test_capacity_eviction_is_lru(self):
        cache = DataCache(capacity=2, timeout=100.0)
        cache.seen_before("a", 0.0)
        cache.seen_before("b", 0.0)
        assert cache.seen_before("a", 1.0)  # a hit: "a" is now newest
        cache.seen_before("c", 1.0)  # evicts "b"
        assert cache.contains("a", 1.0)
        assert not cache.contains("b", 1.0)
        assert cache.contains("c", 1.0)

    def test_hit_does_not_extend_expiry(self):
        cache = DataCache(timeout=10.0)
        cache.seen_before("k", now=0.0)
        assert cache.seen_before("k", now=9.0)
        assert not cache.contains("k", now=10.0)

    def test_contains_is_pure(self):
        cache = DataCache()
        assert not cache.contains("k", 0.0)
        assert not cache.contains("k", 0.0)
        cache.insert("k", 0.0)
        assert cache.contains("k", 0.0)

    def test_hits_misses_counted(self):
        cache = DataCache()
        cache.seen_before("k", 0.0)
        cache.seen_before("k", 0.0)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DataCache(capacity=0)

    def test_clear(self):
        cache = DataCache()
        cache.insert("k", 0.0)
        cache.clear()
        assert len(cache) == 0


class TestGradientTable:
    def test_entry_for_memoizes_by_digest(self):
        table = GradientTable()
        a = table.entry_for(light_interest())
        b = table.entry_for(light_interest())
        assert a is b
        assert len(table) == 1

    def test_gradient_update_and_expiry(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        entry.update_gradient(neighbor=7, now=0.0, timeout=10.0)
        assert entry.active_gradient_neighbors(5.0) == [7]
        assert entry.active_gradient_neighbors(11.0) == []

    def test_gradient_refresh_extends(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        entry.update_gradient(7, now=0.0, timeout=10.0)
        entry.update_gradient(7, now=8.0, timeout=10.0)
        assert entry.active_gradient_neighbors(15.0) == [7]

    def test_matching_data_requires_demand(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        assert table.matching_data(light_data(), now=0.0) == []
        entry.update_gradient(7, now=0.0, timeout=10.0)
        assert table.matching_data(light_data(), now=1.0) == [entry]
        # Expired gradient: no demand again.
        assert table.matching_data(light_data(), now=20.0) == []

    def test_local_sink_is_demand(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        entry.local_sink = True
        assert table.matching_data(light_data(), now=0.0) == [entry]

    def test_matching_respects_attributes(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        entry.local_sink = True
        audio = AttributeVector.builder().actual(Key.TYPE, "audio").build()
        assert table.matching_data(audio, now=0.0) == []

    def test_reinforce_and_unreinforce(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        entry.reinforce(data_origin=3, neighbor=7, now=0.0, timeout=10.0)
        assert entry.reinforced_neighbors(3, now=1.0) == [7]
        assert entry.reinforced_neighbors(4, now=1.0) == []
        assert entry.unreinforce(3, 7)
        assert entry.reinforced_neighbors(3, now=1.0) == []
        assert not entry.unreinforce(3, 7)

    def test_reinforced_expiry(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        entry.reinforce(3, 7, now=0.0, timeout=10.0)
        assert entry.reinforced_neighbors(3, now=11.0) == []

    def test_note_exploratory_first_copy_only(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        assert entry.note_exploratory(3, (3, 100), neighbor=7, now=0.0)
        assert not entry.note_exploratory(3, (3, 100), neighbor=8, now=0.1)
        assert entry.upstream_neighbor(3) == 7
        # New generation moves the pointer.
        assert entry.note_exploratory(3, (3, 200), neighbor=8, now=1.0)
        assert entry.upstream_neighbor(3) == 8

    def test_sweep_drops_dead_entries(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        entry.update_gradient(7, now=0.0, timeout=10.0)
        table.sweep(now=20.0)
        assert len(table) == 0

    def test_sweep_keeps_local_sink(self):
        table = GradientTable()
        entry = table.entry_for(light_interest())
        entry.local_sink = True
        table.sweep(now=20.0)
        assert len(table) == 1

    def test_gradient_dicts_are_untracked_after_a_collection(self):
        """Gradients are expiry floats under int and (int, int) keys:
        containers the collector untracks."""
        entry = GradientTable().entry_for(light_interest())
        entry.update_gradient(7, now=0.0, timeout=10.0)
        entry.reinforce(data_origin=3, neighbor=7, now=0.0, timeout=10.0)
        gc.collect()
        assert not gc.is_tracked(entry.gradients)
        assert not gc.is_tracked(entry.reinforced)

    def test_fresh_entry_holds_no_tracked_set(self):
        entry = GradientTable().entry_for(light_interest())
        assert not [
            value for value in vars(entry).values()
            if isinstance(value, (set, frozenset)) and gc.is_tracked(value)
        ]

    def test_torn_down_until_reinforced_again(self):
        entry = GradientTable().entry_for(light_interest())
        assert not entry.was_torn_down(3)
        entry.reinforce(3, 7, now=0.0, timeout=10.0)
        assert entry.unreinforce(3, 7)
        assert entry.was_torn_down(3)
        entry.reinforce(3, 7, now=1.0, timeout=10.0)
        assert not entry.was_torn_down(3)


class TestFilterMatching:
    def test_empty_attrs_match_everything(self):
        filt = Filter(attrs=AttributeVector(), priority=100, callback=lambda m, h: None)
        msg = make_data(light_data(), origin=1, exploratory=False)
        assert filt.matches(msg)

    def test_class_selective_filter(self):
        attrs = AttributeVector.builder().eq(Key.CLASS, int(ClassValue.INTEREST)).build()
        filt = Filter(attrs=attrs, priority=100, callback=lambda m, h: None)
        assert filt.matches(make_interest(light_interest(), origin=1))
        assert not filt.matches(make_data(light_data(), origin=1, exploratory=False))

    def test_type_selective_filter(self):
        attrs = AttributeVector.builder().eq(Key.TYPE, "light").build()
        filt = Filter(attrs=attrs, priority=100, callback=lambda m, h: None)
        assert filt.matches(make_data(light_data(), origin=1, exploratory=False))
        audio = AttributeVector.builder().actual(Key.TYPE, "audio").build()
        assert not filt.matches(make_data(audio, origin=1, exploratory=False))

    def test_priority_bounds(self):
        with pytest.raises(ValueError):
            Filter(attrs=AttributeVector(), priority=0, callback=lambda m, h: None)
        with pytest.raises(ValueError):
            Filter(attrs=AttributeVector(), priority=255, callback=lambda m, h: None)

    def test_gradient_priority_constant(self):
        assert 1 <= GRADIENT_FILTER_PRIORITY <= 254
