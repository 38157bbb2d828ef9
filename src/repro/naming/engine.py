"""Hot-path matching engine: segregated matching and one match memo.

The paper measures one-way matching as the dominant forwarding cost
(Section 6.3) and suggests two remedies: segregating formals from
actuals, and caching match results.  This module ships both as a fast
path that is *provably equivalent* to the Figure 2 reference matcher
(see ``tests/test_match_engine.py`` for the randomized equivalence
suite) while leaving :func:`repro.naming.matching.one_way_match`
untouched — the Figure 11 experiment depends on the reference
implementation's literal operation counts.

Three pieces:

* :class:`MatchProfile` — a per-vector precomputation (segregated
  formals, actuals indexed by key, and frozenset key-sets) cached on
  :class:`~repro.naming.vector.AttributeVector`, which is immutable, so
  the index is built once per vector instead of once per match.
* :func:`fast_one_way_match` / :func:`fast_two_way_match` — the
  Section 6.3 segregated matcher running on cached profiles, with a
  key-set subset test that rejects impossible matches before any
  value comparison.
* :class:`MatchIndex` — the one memo: a bounded
  ``data_digest -> matching entries`` LRU behind
  :meth:`~repro.core.gradient.GradientTable.matching_data`, the
  per-data-message forwarding decision.  Every datum carries a fresh
  sequence attribute, so an (interest, data) pair practically never
  repeats; what repeats is one datum heard from several neighbours,
  which the memo serves without matching again (about 0.43 of lookups
  on the 14-node Figure 8 run and 0.42 on a 32x32 regional grid).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.naming.attribute import Attribute


class MatchProfile:
    """Precomputed matching view of one attribute sequence.

    Segregates formals from actuals ("since formals cannot match other
    formals there is no need to compare them" — Section 6.3), indexes
    the actuals by key, and exposes frozenset key-sets so callers can
    reject impossible matches with a single subset test.
    """

    __slots__ = ("formals", "actuals_by_key", "formal_keys", "actual_keys")

    def __init__(self, attrs: Iterable[Attribute]) -> None:
        formals: List[Attribute] = []
        actuals_by_key: Dict[int, List[Attribute]] = {}
        for attr in attrs:
            if attr.is_actual:
                actuals_by_key.setdefault(attr.key, []).append(attr)
            else:
                formals.append(attr)
        self.formals: Tuple[Attribute, ...] = tuple(formals)
        self.actuals_by_key = actuals_by_key
        self.formal_keys: FrozenSet[int] = frozenset(a.key for a in formals)
        self.actual_keys: FrozenSet[int] = frozenset(actuals_by_key)

    def can_be_satisfied_by(self, other: "MatchProfile") -> bool:
        """Necessary condition for a one-way match: every formal key
        must have at least one actual with the same key on the other
        side (a formal with no same-key actual always fails, EQ_ANY
        included)."""
        return self.formal_keys <= other.actual_keys

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MatchProfile formals={len(self.formals)} "
            f"actual_keys={sorted(self.actual_keys)}>"
        )


def profile_of(attrs) -> MatchProfile:
    """The :class:`MatchProfile` for ``attrs``.

    Uses the cached profile when ``attrs`` is an
    :class:`~repro.naming.vector.AttributeVector`; plain attribute
    sequences get a throwaway profile.
    """
    getter = getattr(attrs, "match_profile", None)
    if getter is not None:
        return getter()
    return MatchProfile(attrs)


def fast_one_way_match(a, b) -> bool:
    """One-way match on cached profiles: do B's actuals satisfy all of
    A's formals?

    Verdict-equivalent to :func:`repro.naming.matching.one_way_match`
    for every input (the equivalence suite asserts this over randomized
    vectors).
    """
    pa = profile_of(a)
    pb = profile_of(b)
    if not pa.formal_keys <= pb.actual_keys:
        # Some formal has no same-key actual to compare against; the
        # reference matcher would fail at that formal after scanning.
        return False
    actuals = pb.actuals_by_key
    for formal in pa.formals:
        matched = False
        for actual in actuals[formal.key]:
            if formal.compares_with(actual):
                matched = True
                break
        if not matched:
            return False
    return True


def fast_two_way_match(a, b) -> bool:
    """Complete match on cached profiles (both one-way directions)."""
    return fast_one_way_match(a, b) and fast_one_way_match(b, a)


@dataclass
class MatchIndexStats:
    """How :meth:`MatchIndex.matching` resolved its data lookups."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class MatchIndex:
    """Data digest -> the entries whose formals that data satisfies.

    A bounded LRU.  Matching is independent of time, so the memoized
    tuple stays right until the entry set changes: the owner calls
    :meth:`clear` whenever it adds or drops an entry, which is rare next
    to data traffic.  Entries are anything with an ``attrs`` vector.
    """

    #: bound on the memoized data digests
    CAPACITY = 1024

    def __init__(self) -> None:
        self.stats = MatchIndexStats()
        self._memo: "OrderedDict[bytes, Tuple]" = OrderedDict()

    def one_way(self, interest_attrs, data_attrs) -> bool:
        """Do ``data_attrs``'s actuals satisfy all of
        ``interest_attrs``'s formals?

        :func:`fast_one_way_match` under the name the perf ledger's
        tracer (``perf/spans.py``) wraps to charge matching to the
        ``naming`` layer.
        """
        return fast_one_way_match(interest_attrs, data_attrs)

    def matching(self, entries: Iterable, data_attrs) -> Tuple:
        """The ``entries`` (in order) whose formals ``data_attrs``
        satisfies, memoized by data digest."""
        digest = data_attrs.digest()
        memo = self._memo
        cached = memo.get(digest)
        if cached is None:
            self.stats.misses += 1
            cached = tuple(
                entry for entry in entries
                if self.one_way(entry.attrs, data_attrs)
            )
            memo[digest] = cached
            if len(memo) > self.CAPACITY:
                memo.popitem(last=False)
        else:
            self.stats.hits += 1
            memo.move_to_end(digest)
        return cached

    def clear(self) -> None:
        self._memo.clear()
