"""Figures 10 & 11: run-time cost of attribute matching.

Figure 10 gives the attribute sets: an 8-element interest (set A)
matched against a 6-element data message (set B).  Figure 11 grows set
B from 6 to 30 attributes four ways:

* ``match/IS``    — extra *actuals* (``extra IS "lot"``): examined but
  never searched against, so the slope is shallow;
* ``match/EQ``    — extra *formals* (``class EQ interest``): each must
  be matched against set A, the steepest line;
* ``no-match/IS`` and ``no-match/EQ`` — set B's confidence is changed
  so a formal of set A fails; the two-way match aborts early, so added
  attributes in B cost almost nothing.

The paper measured ~500 µs/match on a 66 MHz 486; we report host-CPU
times and verify the *shape*: linear growth and the ordering of the
four lines.  Attribute order is randomized per measurement, as in the
paper.

Section 6.3's proposed optimization, segregating actuals from formals
(:func:`~repro.naming.one_way_match_segregated`), is timed beside
Figure 2's one-way scan on the ``match/IS`` sets
(:func:`measure_segregation`).
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass
from typing import List, Tuple

from repro.naming import (
    Attribute,
    AttributeVector,
    Operator,
    one_way_match,
    one_way_match_segregated,
    two_way_match,
)
from repro.naming.keys import ClassValue, Key


class MatchingVariant(enum.Enum):
    """The four lines of Figure 11."""

    MATCH_IS = "match/is"
    MATCH_EQ = "match/eq"
    NO_MATCH_IS = "no-match/is"
    NO_MATCH_EQ = "no-match/eq"

    @property
    def matches(self) -> bool:
        return self in (MatchingVariant.MATCH_IS, MatchingVariant.MATCH_EQ)

    @property
    def extra_is_actual(self) -> bool:
        return self in (MatchingVariant.MATCH_IS, MatchingVariant.NO_MATCH_IS)


def build_set_a() -> List[Attribute]:
    """Figure 10 set A: the 8-attribute interest."""
    return [
        Attribute.int32(Key.CLASS, Operator.IS, int(ClassValue.INTEREST)),
        Attribute.string(Key.TASK, Operator.EQ, "detectAnimal"),
        Attribute.float64(Key.CONFIDENCE, Operator.GT, 50.0),
        Attribute.float64(Key.LATITUDE, Operator.GE, 10.0),
        Attribute.float64(Key.LATITUDE, Operator.LE, 101.0),
        Attribute.float64(Key.LONGITUDE, Operator.GE, 5.0),
        Attribute.float64(Key.LONGITUDE, Operator.LE, 95.0),
        Attribute.string(Key.TARGET, Operator.IS, "4-leg"),
    ]


def build_set_b(size: int, variant: MatchingVariant) -> List[Attribute]:
    """Figure 10 set B grown to ``size`` attributes per the variant."""
    if size < 6:
        raise ValueError("set B has at least its 6 base attributes")
    confidence = 90.0 if variant.matches else 10.0
    base = [
        Attribute.int32(Key.CLASS, Operator.IS, int(ClassValue.DATA)),
        Attribute.string(Key.TASK, Operator.IS, "detectAnimal"),
        Attribute.float64(Key.CONFIDENCE, Operator.IS, confidence),
        Attribute.float64(Key.LATITUDE, Operator.IS, 20.0),
        Attribute.float64(Key.LONGITUDE, Operator.IS, 80.0),
        Attribute.string(Key.TARGET, Operator.IS, "4-leg"),
    ]
    extra_count = size - len(base)
    if variant.extra_is_actual:
        extras = [
            Attribute.string(Key.PAYLOAD, Operator.IS, "lot")
            for _ in range(extra_count)
        ]
    else:
        # 'class EQ interest': formals that must search set A (and are
        # satisfied by A's 'class IS interest' actual).
        extras = [
            Attribute.int32(Key.CLASS, Operator.EQ, int(ClassValue.INTEREST))
            for _ in range(extra_count)
        ]
    return base + extras


@dataclass
class MatchingMeasurement:
    """Mean cost of one two-way match at a given set-B size."""

    variant: MatchingVariant
    set_b_size: int
    seconds_per_match: float
    matched: bool


#: Figure 11's x axis: set-B sizes from Figure 10's 6 attributes to 30.
SIZES = (6, 10, 14, 18, 22, 26, 30)
#: timed rounds per point; the fastest one is kept.
ROUNDS = 20


def _matching_point(variant: MatchingVariant, set_b_size: int):
    """Sets A and B for one Figure 11 point, checked to give the
    variant's verdict.

    "The order of attributes in each set is randomized each experiment"
    — we shuffle once per point, as reordering inside the timed loop
    would measure the shuffle instead.
    """
    rng = random.Random(42)
    set_a = build_set_a()
    set_b = build_set_b(set_b_size, variant)
    rng.shuffle(set_a)
    rng.shuffle(set_b)
    # Warm-up and correctness check outside the timed region.
    if two_way_match(set_a, set_b) != variant.matches:
        raise AssertionError(
            f"{variant.value} expected match={variant.matches} "
            f"at |B|={set_b_size}"
        )
    return set_a, set_b


def _seconds_per_match(matchers, pairs, iterations: int) -> List[List[float]]:
    """Per-call time of each of ``matchers`` on each ``(set_a, set_b)``
    of ``pairs``, one list per pair.

    Each of :data:`ROUNDS` rounds times every matcher on every pair
    once, in turn, over ``iterations / ROUNDS`` calls, so a host
    slowdown lands on all the points of a round alike; each point keeps
    its fastest round, the one the host disturbed least."""
    per_round = max(1, iterations // ROUNDS)
    best = [[float("inf")] * len(matchers) for _ in pairs]
    for _ in range(ROUNDS):
        for (set_a, set_b), row in zip(pairs, best):
            for i, match in enumerate(matchers):
                start = time.perf_counter()
                for _ in range(per_round):
                    match(set_a, set_b)
                row[i] = min(row[i], time.perf_counter() - start)
    return [[seconds / per_round for seconds in row] for row in best]


def run_fig11(iterations: int = 2000) -> List[MatchingMeasurement]:
    """All four Figure 11 lines across the set-B :data:`SIZES`: the
    mean cost of one two-way match per point, every point timed in the
    same rounds."""
    grid = [(variant, size) for variant in MatchingVariant for size in SIZES]
    pairs = [_matching_point(variant, size) for variant, size in grid]
    return [
        MatchingMeasurement(
            variant=variant,
            set_b_size=size,
            seconds_per_match=seconds,
            matched=variant.matches,
        )
        for (variant, size), (seconds,) in zip(
            grid, _seconds_per_match((two_way_match,), pairs, iterations)
        )
    ]


def measure_segregation(iterations: int) -> List[Tuple[int, float, float]]:
    """``(|B|, Figure 2 s, segregated s)`` per one-way match of set A
    against the ``match/IS`` set B at each of :data:`SIZES`, both
    matchers at every size timed in the same rounds.

    Both sets are :class:`AttributeVector` s, as on the forwarding path,
    so the segregated matcher reads B's key index off the vector's
    cached profile: the table times the segregated search, not the
    index build."""
    pairs = []
    for size in SIZES:
        set_a = AttributeVector(build_set_a())
        set_b = AttributeVector(build_set_b(size, MatchingVariant.MATCH_IS))
        if not one_way_match_segregated(set_a, set_b):
            raise AssertionError(f"segregated matcher missed at |B|={size}")
        pairs.append((set_a, set_b))
    rows = _seconds_per_match(
        (one_way_match, one_way_match_segregated), pairs, iterations
    )
    return [
        (size, scan, segregated)
        for size, (scan, segregated) in zip(SIZES, rows)
    ]


def format_segregation(rows: List[Tuple[int, float, float]]) -> str:
    lines = [
        "Section 6.3 — microseconds per one-way match (match/IS sets)",
        f"{'|B|':>5}{'Figure 2':>14}{'segregated':>14}",
    ]
    for size, scan, segregated in rows:
        lines.append(f"{size:>5}{scan * 1e6:>14.2f}{segregated * 1e6:>14.2f}")
    return "\n".join(lines)


def format_table(measurements: List[MatchingMeasurement]) -> str:
    sizes = sorted({m.set_b_size for m in measurements})
    lines = ["Figure 11 — microseconds per two-way match"]
    header = f"{'|B|':>5}" + "".join(
        f"{v.value:>14}" for v in MatchingVariant
    )
    lines.append(header)
    for size in sizes:
        row = f"{size:>5}"
        for variant in MatchingVariant:
            m = next(
                x
                for x in measurements
                if x.variant is variant and x.set_b_size == size
            )
            row += f"{m.seconds_per_match * 1e6:>14.2f}"
        lines.append(row)
    return "\n".join(lines)


def format_chart(measurements: List[MatchingMeasurement]) -> str:
    from repro.analysis.charts import line_chart

    series = {}
    for variant in MatchingVariant:
        series[variant.value] = [
            (m.set_b_size, m.seconds_per_match * 1e6)
            for m in measurements
            if m.variant is variant
        ]
    return line_chart(
        series,
        title="Figure 11: us per match vs attributes in set B",
        x_label="attributes in set B",
        y_label="us",
    )

