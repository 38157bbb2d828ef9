"""Tests for statistics and the analytical traffic model."""

import pytest

from repro.analysis import TrafficModel, mean_ci


class TestMeanCi:
    def test_mean(self):
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.n == 3

    def test_single_sample_zero_halfwidth(self):
        ci = mean_ci([5.0])
        assert ci.halfwidth == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        import numpy as np

        values = [10.0, 12.0, 9.0, 11.0, 13.0]
        ci = mean_ci(values)
        sem = np.std(values, ddof=1) / np.sqrt(len(values))
        t_crit = scipy_stats.t.ppf(0.975, df=len(values) - 1)
        assert ci.halfwidth == pytest.approx(t_crit * sem, rel=1e-3)

    def test_interval_contains_mean(self):
        ci = mean_ci([1.0, 5.0, 9.0])
        assert ci.contains(ci.mean)
        assert ci.low <= ci.mean <= ci.high

    def test_identical_values_zero_width(self):
        ci = mean_ci([4.0, 4.0, 4.0, 4.0])
        assert ci.halfwidth == 0.0

    def test_large_n_uses_asymptotic(self):
        values = [float(i % 7) for i in range(500)]
        ci = mean_ci(values)
        assert ci.halfwidth > 0

    def test_str_format(self):
        assert "±" in str(mean_ci([1.0, 2.0]))


class TestTrafficModel:
    """Validation against the paper's Section 6.1 numbers."""

    def test_aggregated_is_flat_at_990(self):
        model = TrafficModel()
        values = [model.bytes_per_event(s, aggregated=True) for s in (1, 2, 3, 4)]
        assert all(v == values[0] for v in values)
        # "a flat 990B/event independent of the number of sources"
        assert values[0] == pytest.approx(990, rel=0.01)

    def test_single_source_anchors_both_curves(self):
        model = TrafficModel()
        assert model.bytes_per_event(1, True) == pytest.approx(
            model.bytes_per_event(1, False)
        )

    def test_unaggregated_grows_toward_paper_value(self):
        model = TrafficModel()
        four = model.bytes_per_event(4, aggregated=False)
        # Paper says 3289; our arithmetic gives 3429 (documented 4% gap).
        assert 3289 * 0.95 <= four <= 3429 * 1.01

    def test_unaggregated_monotone_in_sources(self):
        model = TrafficModel()
        values = [model.bytes_per_event(s, False) for s in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_savings_at_four_sources_substantial(self):
        model = TrafficModel()
        # The model's prediction brackets the paper's measured 42%.
        assert 0.6 <= model.savings(4) <= 0.75
        assert model.savings(1) == pytest.approx(0.0)

    def test_breakdown_sums_to_total(self):
        model = TrafficModel()
        b = model.breakdown(3, aggregated=False)
        assert b.total == pytest.approx(
            b.interest + b.exploratory + b.data + b.reinforcement
        )

    def test_table_rows(self):
        rows = TrafficModel().table()
        assert len(rows) == 4
        assert rows[0]["sources"] == 1
        assert rows[3]["unaggregated"] > rows[3]["aggregated"]

    def test_invalid_sources(self):
        with pytest.raises(ValueError):
            TrafficModel().bytes_per_event(0, True)

    def test_exploratory_ratio_effect(self):
        """The paper attributes the sim-vs-testbed savings gap to the
        1:100 vs 1:10 exploratory:data ratio: with more data messages
        per exploratory flood, flooded overhead (interests plus
        exploratory messages) is a smaller share of total traffic."""

        def overhead_share(model):
            b = model.breakdown(4, aggregated=True)
            return (b.interest + b.exploratory) / b.total

        testbed = TrafficModel(exploratory_ratio=10)
        sim_like = TrafficModel(exploratory_ratio=100)
        assert overhead_share(sim_like) < overhead_share(testbed)
