"""One-way and two-way attribute matching (paper Figure 2).

The one-way match tests every *formal* in set A against the *actuals*
of set B; a formal with no satisfying actual fails the whole match.
Multiple formals are effectively "anded" together.  Two sets match
completely when the one-way match succeeds in both directions.

Two implementations are provided:

* :func:`one_way_match` — the literal nested-loop algorithm from
  Figure 2, kept as the reference and for the Figure 11 benchmark.
* :func:`one_way_match_segregated` — the optimization the paper suggests
  in Section 6.3 ("segregating actuals from formals can reduce search
  time"), indexing B's actuals by key first (once per vector, when B is
  an :class:`~repro.naming.vector.AttributeVector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.naming.attribute import Attribute
from repro.naming.engine import profile_of


@dataclass
class MatchStats:
    """Operation counters for the matching cost experiments (Section 6.3)."""

    formals_tested: int = 0
    comparisons: int = 0

    def reset(self) -> None:
        self.formals_tested = 0
        self.comparisons = 0


def one_way_match(
    a: Sequence[Attribute],
    b: Sequence[Attribute],
    stats: Optional[MatchStats] = None,
) -> bool:
    """Figure 2 verbatim: do B's actuals satisfy all of A's formals?"""
    for attr_a in a:
        if not attr_a.is_formal:
            continue
        if stats is not None:
            stats.formals_tested += 1
        matched = False
        for attr_b in b:
            if attr_b.key != attr_a.key or not attr_b.is_actual:
                continue
            if stats is not None:
                stats.comparisons += 1
            if attr_a.compares_with(attr_b):
                matched = True
                # The reference implementation scans the remainder of B
                # anyway; we keep the early exit as the obvious reading of
                # "matched = true" followed by the post-loop check.
                break
        if not matched:
            return False
    return True


def one_way_match_segregated(
    a: Sequence[Attribute],
    b: Sequence[Attribute],
    stats: Optional[MatchStats] = None,
) -> bool:
    """Optimized one-way match: index B's actuals by key first.

    Formals in B are never consulted ("since formals cannot match other
    formals there is no need to compare them" — Section 6.3), so the scan
    over B happens once instead of once per formal in A.  The index is
    B's :class:`~repro.naming.engine.MatchProfile`, which an
    :class:`~repro.naming.vector.AttributeVector` caches (built once per
    vector) and a plain sequence builds per call.
    """
    actuals = profile_of(b).actuals_by_key
    for attr_a in a:
        if not attr_a.is_formal:
            continue
        if stats is not None:
            stats.formals_tested += 1
        matched = False
        for attr_b in actuals.get(attr_a.key, ()):
            if stats is not None:
                stats.comparisons += 1
            if attr_a.compares_with(attr_b):
                matched = True
                break
        if not matched:
            return False
    return True


def two_way_match(
    a: Sequence[Attribute],
    b: Sequence[Attribute],
    stats: Optional[MatchStats] = None,
) -> bool:
    """Complete match: one-way matches succeed from A to B *and* B to A."""
    return one_way_match(a, b, stats) and one_way_match(b, a, stats)


def formals(attrs: Iterable[Attribute]) -> List[Attribute]:
    """The formal (comparison) attributes of a set."""
    return [attr for attr in attrs if attr.is_formal]


def actuals(attrs: Iterable[Attribute]) -> List[Attribute]:
    """The actual (IS-bound) attributes of a set."""
    return [attr for attr in attrs if attr.is_actual]
