"""Property-based tests (hypothesis) for the naming subsystem."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.naming import (
    Attribute,
    AttributeVector,
    Key,
    Operator,
    ValueType,
    decode_attributes,
    encode_attributes,
    encoded_size,
    one_way_match,
    one_way_match_segregated,
    two_way_match,
)

KEYS = st.integers(min_value=1, max_value=50)


@st.composite
def attributes(draw):
    key = draw(KEYS)
    vtype = draw(st.sampled_from(list(ValueType)))
    op = draw(st.sampled_from(list(Operator)))
    if vtype is ValueType.INT32:
        value = draw(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    elif vtype in (ValueType.FLOAT32, ValueType.FLOAT64):
        value = draw(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            )
        )
    elif vtype is ValueType.STRING:
        value = draw(st.text(max_size=20))
    else:
        value = draw(st.binary(max_size=20))
    return Attribute(key, vtype, op, value)


attr_lists = st.lists(attributes(), max_size=12)


class TestMatchingProperties:
    @given(attr_lists, attr_lists)
    @settings(max_examples=100, deadline=None)
    def test_segregated_agrees_with_reference(self, a, b):
        assert one_way_match_segregated(a, b) == one_way_match(a, b)

    @given(attr_lists, attr_lists)
    def test_two_way_is_symmetric(self, a, b):
        assert two_way_match(a, b) == two_way_match(b, a)

    @given(attr_lists, attr_lists, attributes())
    def test_adding_actual_to_b_preserves_one_way_match(self, a, b, extra):
        """One-way matching is monotone in B's actuals: more bound data
        can only satisfy more formals, never fewer."""
        if not one_way_match(a, b):
            return
        actual = Attribute(extra.key, extra.type, Operator.IS, extra.value)
        assert one_way_match(a, b + [actual])

    @given(attr_lists, attr_lists)
    def test_removing_formals_from_a_preserves_match(self, a, b):
        if not one_way_match(a, b):
            return
        fewer_formals = [x for x in a if x.is_actual]
        assert one_way_match(fewer_formals, b)

    @given(attr_lists)
    def test_actuals_only_sets_always_two_way_match(self, attrs):
        actuals = [
            Attribute(x.key, x.type, Operator.IS, x.value) for x in attrs
        ]
        assert two_way_match(actuals, actuals)

    @given(attr_lists)
    def test_match_against_self_with_satisfied_formals(self, attrs):
        """A set joined with actuals for each of its formals matches
        itself one-way."""
        closure = list(attrs)
        for x in attrs:
            if x.is_formal and x.op is not Operator.NE:
                if x.op is Operator.EQ_ANY:
                    closure.append(Attribute(x.key, x.type, Operator.IS, x.value))
                elif x.op in (Operator.EQ, Operator.GE, Operator.LE):
                    closure.append(Attribute(x.key, x.type, Operator.IS, x.value))
        only_satisfiable = [
            x
            for x in closure
            if not (x.is_formal and x.op in (Operator.NE, Operator.GT, Operator.LT))
        ]
        assert one_way_match(only_satisfiable, only_satisfiable)

    @given(attr_lists, attr_lists)
    def test_matching_is_deterministic(self, a, b):
        assert one_way_match(a, b) == one_way_match(a, b)


class TestWireProperties:
    @given(attr_lists)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, attrs):
        data = encode_attributes(attrs)
        decoded, consumed = decode_attributes(data)
        assert consumed == len(data)
        assert decoded == attrs

    @given(attr_lists)
    def test_encoded_size_is_exact(self, attrs):
        assert encoded_size(attrs) == len(encode_attributes(attrs))

    @given(attr_lists, st.binary(max_size=8))
    def test_trailing_bytes_ignored(self, attrs, trailer):
        data = encode_attributes(attrs) + trailer
        decoded, consumed = decode_attributes(data)
        assert decoded == attrs
        assert consumed == len(data) - len(trailer)


class TestVectorProperties:
    @given(attr_lists)
    def test_digest_permutation_invariant(self, attrs):
        import random as _random

        vec = AttributeVector(attrs)
        shuffled = list(attrs)
        _random.Random(0).shuffle(shuffled)
        assert vec.digest() == AttributeVector(shuffled).digest()

    @given(attr_lists, attributes())
    def test_with_attribute_appends(self, attrs, extra):
        vec = AttributeVector(attrs)
        extended = vec.with_attribute(extra)
        assert len(extended) == len(vec) + 1
        assert extended[-1] == extra

    @given(attr_lists, KEYS)
    def test_without_key_removes_all(self, attrs, key):
        vec = AttributeVector(attrs).without_key(key)
        assert all(a.key != key for a in vec)

    @given(attr_lists)
    def test_wire_size_nonnegative_and_additive(self, attrs):
        vec = AttributeVector(attrs)
        assert vec.wire_size() == sum(a.wire_size() for a in attrs)

    @given(attr_lists)
    def test_wire_size_is_the_encoding_less_its_count_field(self, attrs):
        vec = AttributeVector(attrs)
        expected = len(encode_attributes(vec)) - 2
        assert (vec.wire_size(), vec.wire_size()) == (expected, expected)

    @given(attr_lists, st.integers(0, 64), st.integers(0, 200))
    def test_message_size_is_header_encoding_and_padding(
        self, attrs, header_bytes, padding_bytes
    ):
        from repro.core.messages import make_data

        message = make_data(
            AttributeVector(attrs), origin=1, exploratory=False,
            header_bytes=header_bytes, padding_bytes=padding_bytes,
        )
        expected = header_bytes + encoded_size(list(message.attrs)) + padding_bytes
        assert message.nbytes == expected
        assert message.forwarded_copy(None).nbytes == expected


TASK, CONF, LAT, INTERVAL = Key.TASK, Key.CONFIDENCE, Key.LATITUDE, Key.INTERVAL
_EVERY_MS = (INTERVAL, Operator.IS, 1000)
MEMO_INTERESTS = [
    AttributeVector.of((TASK, Operator.EQ, "t"), _EVERY_MS),
    AttributeVector.of((TASK, Operator.EQ, "u"), _EVERY_MS),
    AttributeVector.of((TASK, Operator.EQ, "t"), (CONF, Operator.GT, 50.0),
                       _EVERY_MS),
    AttributeVector.of((TASK, Operator.EQ_ANY, 0), _EVERY_MS),
    AttributeVector.of((LAT, Operator.GE, 0.0), (LAT, Operator.LE, 10.0)),
    AttributeVector.of((TASK, Operator.NE, "t"), _EVERY_MS),
    AttributeVector.of((CONF, Operator.LE, 20.0), _EVERY_MS),
    AttributeVector.of(_EVERY_MS),    # no formals: every datum satisfies it
]
MEMO_DATA = [
    AttributeVector.of((TASK, Operator.IS, "t"), (CONF, Operator.IS, 80.0),
                       (LAT, Operator.IS, 5.0)),
    AttributeVector.of((TASK, Operator.IS, "t"), (CONF, Operator.IS, 10.0)),
    AttributeVector.of((TASK, Operator.IS, "u"), (LAT, Operator.IS, 50.0)),
    AttributeVector.of((LAT, Operator.IS, 1.0)),
    AttributeVector.of((TASK, Operator.IS, "v"), (CONF, Operator.IS, 20.0),
                       (LAT, Operator.IS, 10.0)),
    AttributeVector.of(),
]
_INTEREST = st.integers(0, len(MEMO_INTERESTS) - 1)
memo_steps = st.lists(
    st.one_of(
        st.tuples(st.just("entry_for"), _INTEREST),
        st.tuples(st.just("gradient"), _INTEREST, st.integers(1, 3),
                  st.sampled_from([5.0, 40.0])),
        st.tuples(st.just("local_sink"), _INTEREST),
        st.tuples(st.just("sweep"), st.sampled_from([1.0, 10.0, 50.0])),
        st.tuples(st.just("matching_data"),
                  st.integers(0, len(MEMO_DATA) - 1),
                  st.sampled_from([0.0, 20.0])),
    ),
    max_size=25,
)


class TestMatchMemoProperties:
    """``GradientTable.matching_data`` serves matching entries from the
    data-digest memo in ``MatchIndex``; the table's ``clear()`` calls on
    entry add and on a sweep that drops an entry are all that keep a
    memoized tuple honest.  Random interleavings of table mutations and
    lookups must agree with the Figure 2 scan after every step."""

    @staticmethod
    def _check(table, data, now):
        want = [
            entry for entry in table.entries()
            if entry.has_demand(now)
            and one_way_match(list(entry.attrs), list(data))
        ]
        assert table.matching_data(data, now) == want

    @given(memo_steps)
    @settings(max_examples=300, deadline=None)
    def test_matching_data_equals_reference_scan(self, steps):
        from repro.core.gradient import GradientTable

        table = GradientTable()
        # Entries as callers hold them (a Subscription keeps its
        # entry), so a swept-out one can still be given demand.
        held = {}
        now = 0.0
        for step in steps:
            kind = step[0]
            if kind == "entry_for":
                held[step[1]] = table.entry_for(MEMO_INTERESTS[step[1]])
            elif kind == "gradient" and step[1] in held:
                held[step[1]].update_gradient(step[2], now, step[3])
            elif kind == "local_sink" and step[1] in held:
                entry = held[step[1]]
                entry.local_sink = not entry.local_sink
            elif kind == "sweep":
                now += step[1]
                table.sweep(now)
            elif kind == "matching_data":
                # A lookup between sweeps, past some gradients' expiry.
                self._check(table, MEMO_DATA[step[1]], now + step[2])
            # Every datum after every step, so the memo is warm before
            # each mutation — the state a missing clear() serves stale.
            for data in MEMO_DATA:
                self._check(table, data, now)


class TestWireFuzzing:
    """The decoder must fail cleanly on arbitrary bytes: WireFormatError
    (or a successful parse), never any other exception."""

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_decoder_never_crashes(self, blob):
        from repro.naming.wire import WireFormatError

        try:
            decoded, consumed = decode_attributes(blob)
        except WireFormatError:
            return
        assert consumed <= len(blob)
        for attr in decoded:
            assert attr.wire_size() >= 8
