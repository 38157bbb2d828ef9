"""Matching engine: fast-path equivalence, memoization, invalidation.

The fast path (:mod:`repro.naming.engine`) must be *verdict-identical*
to the Figure 2 reference matcher for every input — the randomized
suite below drives both implementations over generated vectors covering
all operators, mixed value types, shared and disjoint keys, duplicate
keys, and empty sets.  The reference matcher itself stays untouched so
the Figure 11 experiment keeps its literal operation counts; a pinned
regression test guards those counts.
"""

import random

from repro.core.gradient import GradientTable, InterestEntry
from repro.core.messages import MessageType, make_data, make_interest
from repro.naming import (
    Attribute,
    AttributeVector,
    MatchIndex,
    MatchProfile,
    MatchStats,
    Operator,
    fast_one_way_match,
    fast_two_way_match,
    one_way_match,
    two_way_match,
)
from repro.naming.keys import ClassValue, Key


# ---------------------------------------------------------------------------
# Randomized vector generation
# ---------------------------------------------------------------------------

_KEYS = [int(Key.TASK), int(Key.CONFIDENCE), int(Key.LATITUDE), 9001, 9002]
_OPS = list(Operator)


def _random_attribute(rng: random.Random) -> Attribute:
    key = rng.choice(_KEYS)
    op = rng.choice(_OPS)
    if op is Operator.EQ_ANY:
        return Attribute.int32(key, op, 0)
    kind = rng.randrange(4)
    if kind == 0:
        return Attribute.int32(key, op, rng.randrange(-3, 4))
    if kind == 1:
        return Attribute.float64(key, op, rng.choice([-1.5, 0.0, 0.5, 2.5]))
    if kind == 2:
        return Attribute.string(key, op, rng.choice(["a", "b", "c"]))
    return Attribute.blob(key, op, rng.choice([b"x", b"y"]))


def _random_vector(rng: random.Random, max_len: int = 8) -> AttributeVector:
    return AttributeVector(
        _random_attribute(rng) for _ in range(rng.randrange(max_len + 1))
    )


def _entry(attrs: AttributeVector) -> InterestEntry:
    return InterestEntry(digest=attrs.digest(), attrs=attrs)


class TestEquivalence:
    """Fast path == Figure 2 reference, over >=10k randomized pairs."""

    def test_one_way_equivalence_randomized(self):
        rng = random.Random(0xD1FF)
        for _ in range(10_000):
            a = _random_vector(rng)
            b = _random_vector(rng)
            assert fast_one_way_match(a, b) == one_way_match(list(a), list(b))
            assert fast_one_way_match(b, a) == one_way_match(list(b), list(a))

    def test_two_way_equivalence_randomized(self):
        rng = random.Random(0xBEEF)
        for _ in range(2_000):
            a = _random_vector(rng)
            b = _random_vector(rng)
            assert fast_two_way_match(a, b) == two_way_match(list(a), list(b))

    def test_match_index_equivalence_randomized(self):
        """The memo returns the entries the reference scan selects, in
        order, including on repeats served from the memo."""
        rng = random.Random(0xCAFE)
        index = MatchIndex()
        entries = [_entry(_random_vector(rng)) for _ in range(20)]
        pool = [_random_vector(rng) for _ in range(40)]
        for _ in range(1_000):
            data = rng.choice(pool)
            want = tuple(
                e for e in entries if one_way_match(list(e.attrs), list(data))
            )
            assert index.matching(entries, data) == want
        assert index.stats.hits > 0  # repeats actually exercised the memo

    def test_empty_and_formal_only_edges(self):
        empty = AttributeVector()
        formals_only = AttributeVector.of((1, Operator.GT, 5))
        actuals_only = AttributeVector.of((1, Operator.IS, 10))
        for a in (empty, formals_only, actuals_only):
            for b in (empty, formals_only, actuals_only):
                assert fast_one_way_match(a, b) == one_way_match(list(a), list(b))

    def test_plain_sequences_accepted(self):
        # The fast matchers build throwaway profiles for raw lists.
        a = [Attribute.int32(1, Operator.GE, 5)]
        b = [Attribute.int32(1, Operator.IS, 7)]
        assert fast_one_way_match(a, b)
        assert not fast_one_way_match(b + [Attribute.int32(2, Operator.LT, 0)], a)


class TestMatchProfile:
    def test_profile_cached_on_vector(self):
        vec = AttributeVector.of((1, Operator.GT, 5), (2, Operator.IS, 3))
        assert vec.match_profile() is vec.match_profile()

    def test_profile_segregates_and_indexes(self):
        vec = AttributeVector.of(
            (1, Operator.GT, 5), (1, Operator.IS, 3), (2, Operator.IS, 4)
        )
        profile = vec.match_profile()
        assert [a.op for a in profile.formals] == [Operator.GT]
        assert profile.formal_keys == frozenset({1})
        assert profile.actual_keys == frozenset({1, 2})
        assert len(profile.actuals_by_key[1]) == 1

    def test_subset_short_circuit_is_necessary_condition(self):
        interest = AttributeVector.of((1, Operator.EQ, 5), (2, Operator.GT, 0))
        data_missing_key = AttributeVector.of((1, Operator.IS, 5))
        pi = interest.match_profile()
        assert not pi.can_be_satisfied_by(data_missing_key.match_profile())
        assert not fast_one_way_match(interest, data_missing_key)
        assert not one_way_match(list(interest), list(data_missing_key))

    def test_eq_any_still_requires_same_key_actual(self):
        interest = AttributeVector(
            [Attribute.int32(7, Operator.EQ_ANY, 0)]
        )
        assert not fast_one_way_match(interest, AttributeVector())
        assert not one_way_match(list(interest), [])


class TestMatchIndex:
    """The one memo: data digest -> matching entries, a bounded LRU."""

    def _task_entry(self, task: str) -> InterestEntry:
        return _entry(AttributeVector.builder().eq(Key.TASK, task).build())

    def _data(self, task: str, seq: int = 0) -> AttributeVector:
        return (
            AttributeVector.builder()
            .actual(Key.TASK, task)
            .actual(Key.SEQUENCE, seq)
            .build()
        )

    def test_memo_hit_on_repeat(self):
        index = MatchIndex()
        entries = [self._task_entry("t"), self._task_entry("u")]
        data = self._data("t")
        assert index.matching(entries, data) == (entries[0],)
        assert (index.stats.hits, index.stats.misses) == (0, 1)
        # Another copy of the same datum is served without matching:
        # the entries are not even looked at.
        assert index.matching([], data) == (entries[0],)
        assert (index.stats.hits, index.stats.lookups) == (1, 2)

    def test_negative_verdicts_are_memoized_too(self):
        index = MatchIndex()
        entries = [self._task_entry("t")]
        data = self._data("other")
        assert index.matching(entries, data) == ()
        assert index.matching(entries, data) == ()
        assert (index.stats.hits, index.stats.misses) == (1, 1)

    def test_lru_eviction_bounds_size(self):
        index = MatchIndex()
        entries = [self._task_entry("t")]
        capacity = MatchIndex.CAPACITY
        data = [self._data("t", seq) for seq in range(capacity + 1)]
        for datum in data[:capacity]:
            index.matching(entries, datum)
        # The memo holds CAPACITY digests: every one of them hits ...
        for datum in data[:capacity]:
            index.matching(entries, datum)
        assert (index.stats.hits, index.stats.misses) == (capacity, capacity)
        # ... and one more evicts the least recently used, data[0].
        index.matching(entries, data[capacity])
        index.matching(entries, data[1])
        assert index.stats.hits == capacity + 1
        index.matching(entries, data[0])
        assert index.stats.misses == capacity + 2


class TestGradientTableIntegration:
    def _interest(self, task: str) -> AttributeVector:
        return AttributeVector.builder().eq(Key.TASK, task).build()

    def _data(self, task: str) -> AttributeVector:
        return AttributeVector.builder().actual(Key.TASK, task).build()

    def test_matching_data_agrees_with_reference_scan(self):
        rng = random.Random(0xFACE)
        table = GradientTable()
        for _ in range(25):
            entry = table.entry_for(_random_vector(rng, max_len=5))
            entry.local_sink = True
        for _ in range(300):
            data = _random_vector(rng, max_len=5)
            got = {e.digest for e in table.matching_data(data, now=0.0)}
            want = {
                e.digest
                for e in table.entries()
                if one_way_match(list(e.attrs), list(data))
            }
            assert got == want

    def test_sweep_invalidates_match_index(self):
        table = GradientTable()
        entry = table.entry_for(self._interest("t"))
        entry.update_gradient(neighbor=1, now=0.0, timeout=10.0)
        assert table.matching_data(self._data("t"), now=1.0) == [entry]
        table.sweep(now=100.0)  # gradient expired -> entry dropped
        assert len(table) == 0
        # The swept entry is not served from the memo, even when a
        # holder of it gives it demand again.
        entry.local_sink = True
        assert table.matching_data(self._data("t"), now=100.0) == []
        assert table.match_index.stats.misses == 2

    def test_entry_add_invalidates_stale_memo(self):
        table = GradientTable()
        attrs = self._interest("t")
        # Memoize "no entry matches" before the entry exists...
        assert table.matching_data(self._data("t"), now=0.0) == []
        # ...then creating the entry drops that stale tuple.
        entry = table.entry_for(attrs)
        entry.local_sink = True
        assert table.matching_data(self._data("t"), now=0.0) == [entry]
        assert table.match_index.stats.misses == 2

    def test_entry_for_an_existing_digest_keeps_the_memo(self):
        table = GradientTable()
        entry = table.entry_for(self._interest("t"))
        entry.local_sink = True
        data = self._data("t")
        assert table.matching_data(data, now=0.0) == [entry]
        assert table.entry_for(self._interest("t")) is entry
        assert table.matching_data(data, now=0.0) == [entry]
        assert (table.match_index.stats.hits,
                table.match_index.stats.misses) == (1, 1)

    def test_sweep_that_drops_nothing_keeps_the_memo(self):
        table = GradientTable()
        entry = table.entry_for(self._interest("t"))
        entry.update_gradient(neighbor=1, now=0.0, timeout=5.0)
        entry.update_gradient(neighbor=2, now=0.0, timeout=50.0)
        data = self._data("t")
        assert table.matching_data(data, now=1.0) == [entry]
        table.sweep(now=10.0)  # one gradient lapses, the entry stays
        assert list(entry.gradients) == [2]
        assert table.matching_data(data, now=10.0) == [entry]
        assert (table.match_index.stats.hits,
                table.match_index.stats.misses) == (1, 1)

    def test_data_memo_steady_state_and_invalidation(self):
        table = GradientTable()
        stats = table.match_index.stats
        entry = table.entry_for(self._interest("t"))
        entry.local_sink = True
        data = self._data("t")
        assert table.matching_data(data, now=0.0) == [entry]
        assert table.matching_data(data, now=0.0) == [entry]
        assert (stats.hits, stats.misses) == (1, 1)
        # A table mutation (new interest) drops the memo...
        other = table.entry_for(self._interest("u"))
        other.local_sink = True
        assert table.matching_data(data, now=0.0) == [entry]
        assert stats.misses == 2
        # ...and so does sweeping an entry out.
        other.local_sink = False
        table.sweep(now=0.0)
        assert table.matching_data(data, now=0.0) == [entry]
        assert stats.misses == 3

    def test_data_memo_serves_stale_demand_correctly(self):
        """Demand is filtered per lookup, so a memoized candidate list
        stays correct as gradients expire and are refreshed."""
        table = GradientTable()
        stats = table.match_index.stats
        entry = table.entry_for(self._interest("t"))
        entry.update_gradient(neighbor=1, now=0.0, timeout=5.0)
        data = self._data("t")
        assert table.matching_data(data, now=1.0) == [entry]
        assert table.matching_data(data, now=20.0) == []  # expired, memo hit
        assert (stats.hits, stats.misses) == (1, 1)
        entry.update_gradient(neighbor=1, now=21.0, timeout=5.0)
        assert table.matching_data(data, now=22.0) == [entry]
        assert (stats.hits, stats.misses) == (2, 1)

    def test_matching_data_excludes_expired_demand(self):
        table = GradientTable()
        entry = table.entry_for(self._interest("t"))
        entry.update_gradient(neighbor=1, now=0.0, timeout=5.0)
        assert table.matching_data(self._data("t"), now=1.0)
        assert not table.matching_data(self._data("t"), now=50.0)


class TestSweepSkipsRebuild:
    def test_interest_entry_sweep_keeps_dicts_when_nothing_expired(self):
        table = GradientTable()
        entry = table.entry_for(
            AttributeVector.builder().eq(Key.TASK, "t").build()
        )
        entry.update_gradient(neighbor=1, now=0.0, timeout=100.0)
        entry.reinforce(data_origin=4, neighbor=1, now=0.0, timeout=100.0)
        gradients, reinforced = entry.gradients, entry.reinforced
        entry.sweep(now=1.0)
        assert entry.gradients is gradients
        assert entry.reinforced is reinforced

    def test_interest_entry_sweep_rebuilds_on_expiry(self):
        table = GradientTable()
        entry = table.entry_for(
            AttributeVector.builder().eq(Key.TASK, "t").build()
        )
        entry.update_gradient(neighbor=1, now=0.0, timeout=1.0)
        entry.update_gradient(neighbor=2, now=0.0, timeout=100.0)
        entry.sweep(now=50.0)
        assert list(entry.gradients) == [2]


class TestMessageMatchingAttrsCache:
    def test_cached_per_message(self):
        attrs = AttributeVector.builder().actual(Key.TASK, "t").build()
        msg = make_data(attrs=attrs, origin=1, exploratory=False)
        assert msg.matching_attrs() is msg.matching_attrs()

    def test_carries_implicit_class_actual(self):
        attrs = AttributeVector.builder().eq(Key.TASK, "t").build()
        msg = make_interest(attrs=attrs, origin=1)
        assert msg.matching_attrs().value_of(Key.CLASS) == int(ClassValue.INTEREST)

    def test_forwarded_copy_rebuilds_cache(self):
        attrs = AttributeVector.builder().actual(Key.TASK, "t").build()
        msg = make_data(attrs=attrs, origin=1, exploratory=True)
        first = msg.matching_attrs()
        copy = msg.forwarded_copy(next_hop=None)
        assert copy.msg_type is MessageType.EXPLORATORY_DATA
        assert copy.matching_attrs() == first


class TestReferenceMatcherFrozen:
    """Figure 11 depends on the reference matcher's literal operation
    counts; pin them for the paper's Figure 10 sets so an accidental
    "optimization" of the reference path fails loudly."""

    def _sets(self):
        interest = [
            Attribute.int32(Key.CLASS, Operator.EQ, int(ClassValue.INTEREST)),
            Attribute.string(Key.TASK, Operator.EQ, "detectAnimal"),
            Attribute.float64(Key.CONFIDENCE, Operator.GT, 50.0),
            Attribute.float64(Key.LATITUDE, Operator.GE, 10.0),
            Attribute.float64(Key.LATITUDE, Operator.LE, 100.0),
            Attribute.float64(Key.LONGITUDE, Operator.GE, 5.0),
            Attribute.float64(Key.LONGITUDE, Operator.LE, 95.0),
            Attribute.string(Key.TARGET, Operator.IS, "4-leg"),
        ]
        data = [
            Attribute.int32(Key.CLASS, Operator.IS, int(ClassValue.DATA)),
            Attribute.string(Key.TASK, Operator.IS, "detectAnimal"),
            Attribute.float64(Key.CONFIDENCE, Operator.IS, 90.0),
            Attribute.float64(Key.LATITUDE, Operator.IS, 20.0),
            Attribute.float64(Key.LONGITUDE, Operator.IS, 80.0),
            Attribute.string(Key.TARGET, Operator.IS, "4-leg"),
        ]
        return interest, data

    def test_reference_operation_counts_pinned(self):
        interest, data = self._sets()
        stats = MatchStats()
        # 'class EQ interest' vs 'class IS data' fails on the first
        # formal after exactly one comparison.
        assert not one_way_match(interest, data, stats)
        assert (stats.formals_tested, stats.comparisons) == (1, 1)
        stats.reset()
        # Dropping the class formal: 6 formals each satisfied by one
        # same-key actual in B.
        assert one_way_match(interest[1:], data, stats)
        assert (stats.formals_tested, stats.comparisons) == (6, 6)
