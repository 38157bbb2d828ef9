"""Benchmark: Figure 9 — % of audio events delivered, nested vs flat.

Regenerates both curves (nested and one-level queries, 1-4 light
sensors) at the paper's configuration: 20-minute runs, three trials per
point, 95% CIs.  Shape assertions encode the paper's claims:

* nested queries deliver more than flat queries at every sensor count;
* both degrade as sensors (and hence traffic) increase;
* the loss-rate reduction from nesting is in the paper's 15-30 point
  range somewhere on the curve.
"""

import pytest

from repro.campaign import get_campaign, report_table, run_campaign
from repro.campaign.builtin import fig9_pivot
from repro.experiments.runner import loss_reduction_at
from repro.shard import ShardPlan, run_oracle

pytestmark = pytest.mark.slow

DURATION = 1200.0
LIGHT_COUNTS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def fig9_report():
    """The ``fig9`` campaign: 3 seeds x 1200 s per point."""
    report = run_campaign(get_campaign("fig9"))
    assert report.ok
    return report


@pytest.fixture(scope="module")
def fig9_points(fig9_report):
    """``{num_lights: {nested: % delivered}}``."""
    return fig9_pivot(fig9_report.outcomes)


def test_fig9_full_sweep(benchmark, fig9_report, fig9_points):
    def one_point():
        return run_oracle(ShardPlan("fig9", {"num_lights": 4}, 999, DURATION, 1))

    benchmark.pedantic(one_point, rounds=1, iterations=1)
    print()
    print(report_table("fig9", fig9_report))
    for n in LIGHT_COUNTS:
        print(
            f"loss reduction from nesting at {n} sensor(s): "
            f"{loss_reduction_at(fig9_points, n):.0f} points"
        )

    # Shape claims (duplicated from the granular tests, which
    # --benchmark-only skips).
    for n in LIGHT_COUNTS:
        assert fig9_points[n][True].mean >= fig9_points[n][False].mean
    reductions = [loss_reduction_at(fig9_points, n) for n in LIGHT_COUNTS]
    assert any(10.0 <= r <= 45.0 for r in reductions)


def test_nested_beats_flat_everywhere(fig9_points):
    for n in LIGHT_COUNTS:
        assert fig9_points[n][True].mean >= fig9_points[n][False].mean


def test_delivery_degrades_with_sensor_count(fig9_points):
    for nested in (True, False):
        assert fig9_points[4][nested].mean < fig9_points[1][nested].mean


def test_loss_reduction_in_paper_band_somewhere(fig9_points):
    reductions = [loss_reduction_at(fig9_points, n) for n in LIGHT_COUNTS]
    assert any(10.0 <= r <= 45.0 for r in reductions)


def test_nested_latency_not_worse(fig9_report):
    """Section 5.2: 'A nested query localizes data traffic near the
    triggering event ... reduction in latency can be substantial.'
    Compare mean change->audio latency across all points."""

    def mean_latency(nested):
        values = [
            o.result["mean_latency"]
            for o in fig9_report.outcomes
            if o.spec.params["nested"] == nested
            and o.result["mean_latency"] is not None
        ]
        return sum(values) / len(values)

    nested_latency = mean_latency(True)
    flat_latency = mean_latency(False)
    print(f"\nmean change->audio latency: nested {nested_latency:.2f}s, "
          f"flat {flat_latency:.2f}s")
    assert nested_latency <= flat_latency * 1.1


def test_absolute_delivery_sane(fig9_points):
    """Best-effort multi-hop delivery: partial, not zero, not perfect."""
    for cells in fig9_points.values():
        for ci in cells.values():
            assert 0.0 <= ci.mean <= 100.0
    assert fig9_points[1][True].mean > 40.0
