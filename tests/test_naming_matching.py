"""Tests for one-way/two-way matching, including the paper's Figure 10 sets."""

import pytest

from repro.naming import (
    Attribute,
    AttributeVector,
    MatchStats,
    Operator,
    one_way_match,
    one_way_match_segregated,
    two_way_match,
)
from repro.naming.keys import ClassValue, Key


def figure10_interest() -> AttributeVector:
    """Set A from Figure 10 of the paper (8 attributes)."""
    return (
        AttributeVector.builder()
        .eq(Key.CLASS, int(ClassValue.INTEREST))
        .eq(Key.TASK, "detectAnimal")
        .gt(Key.CONFIDENCE, 50.0)
        .ge(Key.LATITUDE, 10.0)
        .le(Key.LATITUDE, 100.0)
        .ge(Key.LONGITUDE, 5.0)
        .le(Key.LONGITUDE, 95.0)
        .actual(Key.TARGET, "4-leg")
        .build()
    )


def figure10_data() -> AttributeVector:
    """Set B from Figure 10 of the paper (6 attributes)."""
    return (
        AttributeVector.builder()
        .actual(Key.CLASS, int(ClassValue.DATA))
        .actual(Key.TASK, "detectAnimal")
        .actual(Key.CONFIDENCE, 90.0)
        .actual(Key.LATITUDE, 20.0)
        .actual(Key.LONGITUDE, 80.0)
        .actual(Key.TARGET, "4-leg")
        .build()
    )


class TestFigure10:
    """The exact attribute sets the paper uses in Section 6.3."""

    def test_interest_formals_satisfied_by_data(self):
        a = [x for x in figure10_interest() if x.key != Key.CLASS]
        b = list(figure10_data())
        assert one_way_match(a, b)

    def test_full_interest_fails_on_class(self):
        # 'class EQ interest' is not satisfied by 'class IS data'; the
        # diffusion core strips/handles the class attribute before
        # gradient matching.
        assert not one_way_match(list(figure10_interest()), list(figure10_data()))

    def test_confidence_mismatch_fails(self):
        a = [x for x in figure10_interest() if x.key != Key.CLASS]
        bad = figure10_data().replace_actual(Key.CONFIDENCE, 10.0)
        assert not one_way_match(a, list(bad))

    def test_out_of_region_fails(self):
        a = [x for x in figure10_interest() if x.key != Key.CLASS]
        bad = figure10_data().replace_actual(Key.LATITUDE, 300.0)
        assert not one_way_match(a, list(bad))


class TestOneWayMatch:
    def test_empty_formals_always_match(self):
        b = [Attribute.int32(Key.SEQUENCE, Operator.IS, 1)]
        assert one_way_match([], b)
        actual_only = [Attribute.int32(Key.SEQUENCE, Operator.IS, 5)]
        assert one_way_match(actual_only, b)

    def test_formal_without_matching_actual_fails(self):
        a = [Attribute.float64(Key.CONFIDENCE, Operator.GT, 0.5)]
        assert not one_way_match(a, [])

    def test_formal_ignores_formals_in_b(self):
        # "confidence GT 0.5" must have an actual; "confidence LT 0.7"
        # in B does not satisfy it (paper Section 3.2).
        a = [Attribute.float64(Key.CONFIDENCE, Operator.GT, 0.5)]
        b = [Attribute.float64(Key.CONFIDENCE, Operator.LT, 0.7)]
        assert not one_way_match(a, b)

    def test_formal_ignores_gt_in_b(self):
        a = [Attribute.float64(Key.CONFIDENCE, Operator.GT, 0.5)]
        b = [Attribute.float64(Key.CONFIDENCE, Operator.GT, 0.7)]
        assert not one_way_match(a, b)

    def test_multiple_formals_are_anded(self):
        a = [
            Attribute.float64(Key.X_COORD, Operator.GE, -100.0),
            Attribute.float64(Key.X_COORD, Operator.LE, 200.0),
        ]
        inside = [Attribute.float64(Key.X_COORD, Operator.IS, 125.0)]
        outside = [Attribute.float64(Key.X_COORD, Operator.IS, 300.0)]
        assert one_way_match(a, inside)
        assert not one_way_match(a, outside)

    def test_any_satisfying_actual_suffices(self):
        a = [Attribute.int32(Key.SEQUENCE, Operator.EQ, 2)]
        b = [
            Attribute.int32(Key.SEQUENCE, Operator.IS, 1),
            Attribute.int32(Key.SEQUENCE, Operator.IS, 2),
        ]
        assert one_way_match(a, b)

    def test_stats_counters(self):
        stats = MatchStats()
        a = [x for x in figure10_interest() if x.key != Key.CLASS]
        one_way_match(a, list(figure10_data()), stats)
        assert stats.formals_tested == 6  # 7 formals minus the class EQ
        assert stats.comparisons >= 6


class TestSegregatedMatch:
    """The optimized matcher must agree with the reference everywhere."""

    CASES = [
        ([], []),
        (
            [Attribute.float64(Key.CONFIDENCE, Operator.GT, 0.5)],
            [Attribute.float64(Key.CONFIDENCE, Operator.IS, 0.7)],
        ),
        (
            [Attribute.float64(Key.CONFIDENCE, Operator.GT, 0.5)],
            [Attribute.float64(Key.CONFIDENCE, Operator.IS, 0.3)],
        ),
        (
            [Attribute.float64(Key.CONFIDENCE, Operator.GT, 0.5)],
            [Attribute.float64(Key.CONFIDENCE, Operator.LT, 0.7)],
        ),
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_agreement(self, a, b):
        assert one_way_match_segregated(a, b) == one_way_match(a, b)

    def test_agreement_on_figure10(self):
        a = [x for x in figure10_interest() if x.key != Key.CLASS]
        b = list(figure10_data())
        assert one_way_match_segregated(a, b) == one_way_match(a, b) is True

    def test_fewer_comparisons_on_long_sets(self):
        a = [Attribute.int32(Key.SEQUENCE, Operator.EQ, 99)]
        b = [Attribute.int32(Key.PAYLOAD, Operator.IS, i) for i in range(50)]
        b.append(Attribute.int32(Key.SEQUENCE, Operator.IS, 99))
        ref, seg = MatchStats(), MatchStats()
        assert one_way_match(a, b, ref)
        assert one_way_match_segregated(a, b, seg)
        assert seg.comparisons <= ref.comparisons

    @pytest.mark.parametrize("a,b", CASES)
    def test_a_vector_reads_its_cached_index(self, a, b):
        """On an AttributeVector B the key index is the vector's cached
        profile's: the verdict and the counts are those of a list."""
        vector = AttributeVector(b)
        listed, cached = MatchStats(), MatchStats()
        verdict = one_way_match_segregated(a, b, listed)
        assert one_way_match_segregated(a, vector, cached) == verdict
        assert one_way_match_segregated(a, vector) == verdict
        assert (cached.formals_tested, cached.comparisons) == (
            listed.formals_tested, listed.comparisons
        )
        assert vector.match_profile() is vector.match_profile()


class TestTwoWayMatch:
    def test_subscription_matches_publication(self):
        # A publish/subscribe pair per Section 4.1: publication attrs
        # must match the subscription in both directions.
        sub = (
            AttributeVector.builder()
            .eq(Key.TYPE, "light")
            .actual(Key.TASK, "monitor")
            .eq_any(Key.SEQUENCE)
            .build()
        )
        pub = (
            AttributeVector.builder()
            .actual(Key.TYPE, "light")
            .actual(Key.SEQUENCE, 0)
            .eq(Key.TASK, "monitor")
            .build()
        )
        assert two_way_match(list(sub), list(pub))

    def test_two_way_fails_if_either_direction_fails(self):
        a = [
            Attribute.string(Key.TYPE, Operator.EQ, "light"),
            Attribute.string(Key.TASK, Operator.IS, "t"),
        ]
        b = [
            Attribute.string(Key.TYPE, Operator.IS, "light"),
            Attribute.string(Key.TASK, Operator.EQ, "other"),
        ]
        assert one_way_match(a, b)
        assert not two_way_match(a, b)

    def test_symmetric(self):
        a = [Attribute.string(Key.TYPE, Operator.EQ, "light"),
             Attribute.string(Key.TYPE, Operator.IS, "light")]
        b = [Attribute.string(Key.TYPE, Operator.IS, "light"),
             Attribute.string(Key.TYPE, Operator.EQ, "light")]
        assert two_way_match(a, b) == two_way_match(b, a) is True
