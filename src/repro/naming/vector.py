"""AttributeVector: an ordered collection of attributes with helpers.

Mirrors the ``NRAttrVec`` of the C++ API (paper Figure 4) plus the
conveniences an application actually needs: lookup by key, actual-value
extraction, a stable digest for the duplicate cache, and a builder DSL
so examples read close to the paper's notation::

    interest = (AttributeVector.builder()
        .eq(Key.TYPE, "four-legged-animal-search")
        .actual(Key.INTERVAL, 20)
        .ge(Key.X_COORD, -100).le(Key.X_COORD, 200)
        .build())
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.naming.attribute import Attribute, Operator, Scalar, ValueType
from repro.naming.engine import MatchProfile
from repro.naming.matching import two_way_match


def _coerce_type(value: Scalar) -> ValueType:
    if isinstance(value, bool):
        raise TypeError("bool is not a valid attribute value")
    if isinstance(value, int):
        return ValueType.INT32
    if isinstance(value, float):
        return ValueType.FLOAT64
    if isinstance(value, str):
        return ValueType.STRING
    if isinstance(value, (bytes, bytearray)):
        return ValueType.BLOB
    raise TypeError(f"cannot infer attribute type for {value!r}")


class AttributeVector:
    """An immutable, ordered list of :class:`Attribute`."""

    __slots__ = ("_attrs", "_digest", "_profile", "_wire_size")

    def __init__(self, attrs: Iterable[Attribute] = ()) -> None:
        object.__setattr__(self, "_attrs", tuple(attrs))
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_profile", None)
        object.__setattr__(self, "_wire_size", None)
        for attr in self._attrs:
            if not isinstance(attr, Attribute):
                raise TypeError(f"expected Attribute, got {attr!r}")

    def __setattr__(self, name, value):  # noqa: ANN001
        raise AttributeError("AttributeVector is immutable")

    def __reduce__(self):
        # Immutability breaks the default slot-state pickling; rebuild
        # through the constructor (memoized digest/profile/size re-derive).
        return (self.__class__, (self._attrs,))

    # -- sequence protocol ---------------------------------------------------

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def __getitem__(self, index: int) -> Attribute:
        return self._attrs[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeVector):
            return NotImplemented
        return self._attrs == other._attrs

    def __hash__(self) -> int:
        return hash(self._attrs)

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self._attrs)
        return f"AttributeVector([{inner}])"

    # -- lookup ---------------------------------------------------------------

    def find(self, key: int, op: Optional[Operator] = None) -> Optional[Attribute]:
        """First attribute with ``key`` (and ``op``, when given)."""
        for attr in self._attrs:
            if attr.key == key and (op is None or attr.op == op):
                return attr
        return None

    def find_all(self, key: int) -> List[Attribute]:
        return [attr for attr in self._attrs if attr.key == key]

    def value_of(self, key: int, default: Optional[Scalar] = None) -> Optional[Scalar]:
        """Value of the first *actual* with ``key``."""
        for attr in self._attrs:
            if attr.key == key and attr.is_actual:
                return attr.value
        return default

    def has_actual(self, key: int) -> bool:
        return any(attr.key == key and attr.is_actual for attr in self._attrs)

    # -- algebra ----------------------------------------------------------------

    def with_attribute(self, attr: Attribute) -> "AttributeVector":
        return AttributeVector(self._attrs + (attr,))

    def without_key(self, key: int) -> "AttributeVector":
        return AttributeVector(a for a in self._attrs if a.key != key)

    def replace_actual(self, key: int, value: Scalar) -> "AttributeVector":
        """Copy with the first actual for ``key`` re-bound to ``value``."""
        out: List[Attribute] = []
        replaced = False
        for attr in self._attrs:
            if not replaced and attr.key == key and attr.is_actual:
                out.append(Attribute(key, attr.type, Operator.IS, value))
                replaced = True
            else:
                out.append(attr)
        if not replaced:
            raise KeyError(f"no actual with key {key} to replace")
        return AttributeVector(out)

    # -- matching ----------------------------------------------------------------

    def match_profile(self) -> MatchProfile:
        """Cached matching precomputation (segregated formals/actuals
        and key-sets) — safe because the vector is immutable.  The fast
        matchers in :mod:`repro.naming.engine` use this so the key index
        is built once per vector, not once per match."""
        cached = object.__getattribute__(self, "_profile")
        if cached is None:
            cached = MatchProfile(self._attrs)
            object.__setattr__(self, "_profile", cached)
        return cached

    def matches(self, other: "AttributeVector") -> bool:
        """Complete (two-way) match against ``other``."""
        return two_way_match(self._attrs, other._attrs)

    # -- wire helpers -------------------------------------------------------------

    def wire_size(self) -> int:
        """Total encoded size of the attribute list in bytes."""
        cached = object.__getattribute__(self, "_wire_size")
        if cached is None:
            cached = sum(attr.wire_size() for attr in self._attrs)
            object.__setattr__(self, "_wire_size", cached)
        return cached

    def digest(self) -> bytes:
        """Order-insensitive hash for exact-duplicate detection.

        The diffusion core is "primarily interested in an exact match",
        so hashes of attributes can be compared rather than complete data
        (Section 3.1).  Sorting makes the digest stable under the
        attribute reordering the paper's experiments randomize.
        """
        cached = object.__getattribute__(self, "_digest")
        if cached is not None:
            return cached
        hasher = hashlib.sha1()
        for attr in sorted(
            self._attrs, key=lambda a: (a.key, int(a.op), int(a.type), repr(a.value))
        ):
            hasher.update(
                f"{attr.key}|{int(attr.op)}|{int(attr.type)}|{attr.value!r}".encode()
            )
        digest = hasher.digest()
        object.__setattr__(self, "_digest", digest)
        return digest

    # -- construction -------------------------------------------------------------

    @classmethod
    def of(cls, *pairs: Union[Attribute, Tuple[int, Operator, Scalar]]) -> "AttributeVector":
        """Build from Attribute objects or ``(key, op, value)`` triples."""
        attrs: List[Attribute] = []
        for item in pairs:
            if isinstance(item, Attribute):
                attrs.append(item)
            else:
                key, op, value = item
                attrs.append(Attribute(key, _coerce_type(value), op, value))
        return cls(attrs)

    @classmethod
    def builder(cls) -> "AttributeVectorBuilder":
        return AttributeVectorBuilder()


class AttributeVectorBuilder:
    """Fluent construction of attribute vectors."""

    def __init__(self) -> None:
        self._attrs: List[Attribute] = []

    def add(self, key: int, op: Operator, value: Scalar) -> "AttributeVectorBuilder":
        self._attrs.append(Attribute(key, _coerce_type(value), op, value))
        return self

    def actual(self, key: int, value: Scalar) -> "AttributeVectorBuilder":
        return self.add(key, Operator.IS, value)

    def eq(self, key: int, value: Scalar) -> "AttributeVectorBuilder":
        return self.add(key, Operator.EQ, value)

    def ne(self, key: int, value: Scalar) -> "AttributeVectorBuilder":
        return self.add(key, Operator.NE, value)

    def gt(self, key: int, value: Scalar) -> "AttributeVectorBuilder":
        return self.add(key, Operator.GT, value)

    def ge(self, key: int, value: Scalar) -> "AttributeVectorBuilder":
        return self.add(key, Operator.GE, value)

    def lt(self, key: int, value: Scalar) -> "AttributeVectorBuilder":
        return self.add(key, Operator.LT, value)

    def le(self, key: int, value: Scalar) -> "AttributeVectorBuilder":
        return self.add(key, Operator.LE, value)

    def eq_any(self, key: int) -> "AttributeVectorBuilder":
        self._attrs.append(Attribute.int32(key, Operator.EQ_ANY, 0))
        return self

    def extend(self, attrs: Iterable[Attribute]) -> "AttributeVectorBuilder":
        self._attrs.extend(attrs)
        return self

    def build(self) -> AttributeVector:
        return AttributeVector(self._attrs)
