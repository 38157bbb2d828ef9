"""Tests for AttributeVector and the wire codec."""

import pytest

from repro.naming import (
    Attribute,
    AttributeVector,
    Operator,
    ValueType,
    decode_attributes,
    encode_attributes,
    encoded_size,
)
from repro.naming.keys import Key
from repro.naming.wire import WireFormatError


def sample_vector() -> AttributeVector:
    return (
        AttributeVector.builder()
        .eq(Key.TYPE, "four-legged-animal-search")
        .actual(Key.INTERVAL, 20)
        .actual(Key.DURATION, 10)
        .ge(Key.X_COORD, -100.0)
        .le(Key.X_COORD, 200.0)
        .ge(Key.Y_COORD, 100.0)
        .le(Key.Y_COORD, 400.0)
        .build()
    )


class TestAttributeVector:
    def test_len_and_iteration(self):
        vec = sample_vector()
        assert len(vec) == 7
        assert all(isinstance(a, Attribute) for a in vec)

    def test_immutability(self):
        vec = sample_vector()
        with pytest.raises(AttributeError):
            vec._attrs = ()

    def test_find_by_key_and_op(self):
        vec = sample_vector()
        assert vec.find(Key.INTERVAL).value == 20
        assert vec.find(Key.X_COORD, Operator.GE).value == -100.0
        assert vec.find(Key.X_COORD, Operator.LE).value == 200.0
        assert vec.find(Key.CONFIDENCE) is None

    def test_find_all(self):
        vec = sample_vector()
        assert len(vec.find_all(Key.X_COORD)) == 2

    def test_value_of_only_returns_actuals(self):
        vec = sample_vector()
        assert vec.value_of(Key.INTERVAL) == 20
        # TYPE is present only as a formal (EQ), so no actual value.
        assert vec.value_of(Key.TYPE) is None

    def test_has_actual(self):
        vec = sample_vector()
        assert vec.has_actual(Key.INTERVAL)
        assert not vec.has_actual(Key.TYPE)

    def test_with_attribute_returns_new_vector(self):
        vec = sample_vector()
        extended = vec.with_attribute(
            Attribute.int32(Key.SEQUENCE, Operator.IS, 9)
        )
        assert len(extended) == len(vec) + 1
        assert len(vec) == 7

    def test_without_key(self):
        vec = sample_vector().without_key(Key.X_COORD)
        assert vec.find(Key.X_COORD) is None
        assert len(vec) == 5

    def test_replace_actual(self):
        vec = sample_vector().replace_actual(Key.INTERVAL, 50)
        assert vec.value_of(Key.INTERVAL) == 50

    def test_replace_actual_missing_raises(self):
        with pytest.raises(KeyError):
            sample_vector().replace_actual(Key.CONFIDENCE, 1)

    def test_of_with_triples(self):
        vec = AttributeVector.of(
            (int(Key.TYPE), Operator.EQ, "light"),
            (int(Key.SEQUENCE), Operator.IS, 3),
        )
        assert len(vec) == 2
        assert vec[1].type is ValueType.INT32

    def test_bool_rejected_in_builder(self):
        with pytest.raises(TypeError):
            AttributeVector.builder().actual(Key.SEQUENCE, True).build()

    def test_equality_is_order_sensitive(self):
        a = AttributeVector.of((int(Key.SEQUENCE), Operator.IS, 1),
                               (int(Key.INTERVAL), Operator.IS, 2))
        b = AttributeVector.of((int(Key.INTERVAL), Operator.IS, 2),
                               (int(Key.SEQUENCE), Operator.IS, 1))
        assert a != b

    def test_digest_is_order_insensitive(self):
        a = AttributeVector.of((int(Key.SEQUENCE), Operator.IS, 1),
                               (int(Key.INTERVAL), Operator.IS, 2))
        b = AttributeVector.of((int(Key.INTERVAL), Operator.IS, 2),
                               (int(Key.SEQUENCE), Operator.IS, 1))
        assert a.digest() == b.digest()

    def test_digest_distinguishes_values(self):
        a = AttributeVector.of((int(Key.SEQUENCE), Operator.IS, 1))
        b = AttributeVector.of((int(Key.SEQUENCE), Operator.IS, 2))
        assert a.digest() != b.digest()

    def test_digest_distinguishes_operator(self):
        a = AttributeVector.of((int(Key.SEQUENCE), Operator.IS, 1))
        b = AttributeVector.of((int(Key.SEQUENCE), Operator.EQ, 1))
        assert a.digest() != b.digest()


class TestWireCodec:
    def test_round_trip(self):
        vec = sample_vector()
        data = encode_attributes(list(vec))
        decoded, consumed = decode_attributes(data)
        assert consumed == len(data)
        assert AttributeVector(decoded) == vec

    def test_round_trip_all_types(self):
        attrs = [
            Attribute.int32(Key.SEQUENCE, Operator.IS, -7),
            Attribute.float32(Key.CONFIDENCE, Operator.GT, 0.25),
            Attribute.float64(Key.LATITUDE, Operator.IS, 34.0522),
            Attribute.string(Key.TASK, Operator.EQ, "détect"),
            Attribute.blob(Key.PAYLOAD, Operator.IS, bytes(range(16))),
        ]
        decoded, _ = decode_attributes(encode_attributes(attrs))
        assert decoded == attrs

    def test_encoded_size_matches_actual_encoding(self):
        vec = sample_vector()
        assert encoded_size(list(vec)) == len(encode_attributes(list(vec)))

    def test_empty_list(self):
        data = encode_attributes([])
        decoded, consumed = decode_attributes(data)
        assert decoded == []
        assert consumed == 2

    def test_truncated_header_raises(self):
        data = encode_attributes([Attribute.int32(Key.SEQUENCE, Operator.IS, 1)])
        with pytest.raises(WireFormatError):
            decode_attributes(data[:4])

    def test_truncated_payload_raises(self):
        data = encode_attributes([Attribute.int32(Key.SEQUENCE, Operator.IS, 1)])
        with pytest.raises(WireFormatError):
            decode_attributes(data[:-2])

    def test_garbage_type_raises(self):
        data = bytearray(encode_attributes([Attribute.int32(Key.SEQUENCE, Operator.IS, 1)]))
        data[6] = 0xEE  # type byte
        with pytest.raises(WireFormatError):
            decode_attributes(bytes(data))

    def test_paper_sized_event_message(self):
        """Paper Section 6.1: events are 112-byte messages; make sure a
        realistic detection vector fits in that envelope."""
        vec = (
            AttributeVector.builder()
            .actual(Key.TYPE, "four-legged-animal-search")
            .actual(Key.INSTANCE, "elephant")
            .actual(Key.X_COORD, 125.0)
            .actual(Key.Y_COORD, 220.0)
            .actual(Key.INTENSITY, 0.6)
            .actual(Key.CONFIDENCE, 0.85)
            .actual(Key.TIMESTAMP, 80)
            .actual(Key.CLASS, 2)
            .build()
        )
        assert encoded_size(list(vec)) <= 150
