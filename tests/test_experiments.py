"""Fast-variant tests for the experiment harnesses.

The paper-scale runs are ``python -m repro experiments`` on its full
grids, which judges the claims table (:mod:`repro.campaign.claims`);
these verify the harness plumbing (parameter validation, result
structure, table/chart formatting, the claims' verdicts and exit
status) at reduced durations.
"""

import re
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.campaign import CAMPAIGNS, Campaign, claims, report_table, run_campaign
from repro.campaign.builtin import PLAN_TRIAL, fig8_pivot, fig9_pivot
from repro.experiments import (
    MatchingVariant,
    build_set_a,
    build_set_b,
    measure_matching,
    run_duty_cycle_analysis,
)
from repro.experiments.fig11_matching import format_chart as fig11_chart
from repro.experiments.fig11_matching import format_table as fig11_table
from repro.experiments.duty_cycle import format_table as duty_table
from repro.shard import ShardPlan, run_oracle


def figure_sweep(name, grid, trials=2, duration=240.0, base_seed=100):
    """A cut-down ``fig8`` / ``fig9`` campaign: the same plan grid."""
    return run_campaign(Campaign(
        name=name, trial=PLAN_TRIAL, grid=grid,
        fixed={"scenario": name, "duration": duration},
        seeds=[base_seed + trial for trial in range(trials)],
    ))


class TestFig8Harness:
    def test_trial_result_structure(self):
        result = run_oracle(ShardPlan(
            "fig8", {"sources": 2, "suppression": True}, 1, 240.0, 1
        ))
        assert result["sources"] == 2
        assert result["suppression"] is True
        assert result["diffusion_bytes_sent"] > 0
        assert 0.0 <= result["delivery_ratio"] <= 1.0

    def test_invalid_source_count(self):
        with pytest.raises(ValueError):
            run_oracle(ShardPlan("fig8", {"sources": 0}, 1, 10.0, 1))
        with pytest.raises(ValueError):
            run_oracle(ShardPlan("fig8", {"sources": 5}, 1, 10.0, 1))

    def test_sweep_and_formatting(self):
        report = figure_sweep(
            "fig8", {"sources": [1, 2], "suppression": [True, False]}
        )
        assert report.ok and len(report.outcomes) == 8
        points = fig8_pivot(report.outcomes)
        assert sorted(points) == [1, 2]
        assert all(sorted(cells) == [False, True] for cells in points.values())
        table = report_table("fig8", report)
        assert "with suppression" in table and "without suppression" in table
        # (the chart: TestRunner::test_jobs_spread_a_figures_trials...)

    def test_points_carry_trials(self):
        report = figure_sweep(
            "fig8", {"sources": [1], "suppression": [True, False]}
        )
        points = fig8_pivot(report.outcomes)
        # A cell's n is its seed count: every trial landed in its cell.
        assert all(ci.n == 2 for ci in points[1].values())
        assert sorted(o.spec.seed for o in report.outcomes) == [
            100, 100, 101, 101,
        ]


class TestFig9Harness:
    def test_trial_result_structure(self):
        result = run_oracle(ShardPlan(
            "fig9", {"num_lights": 1, "nested": True}, 1, 240.0, 1
        ))
        assert result["num_lights"] == 1
        assert result["possible_events"] == 4
        assert 0.0 <= result["delivery_percentage"] <= 100.0

    def test_invalid_light_count(self):
        with pytest.raises(ValueError):
            run_oracle(ShardPlan("fig9", {"num_lights": 0}, 1, 10.0, 1))

    def test_sweep_and_formatting(self):
        report = figure_sweep(
            "fig9", {"num_lights": [1], "nested": [True, False]},
            base_seed=200,
        )
        assert report.ok and len(report.outcomes) == 4
        points = fig9_pivot(report.outcomes)
        assert sorted(points[1]) == [False, True]
        table = report_table("fig9", report)
        assert "nested" in table and "flat" in table


class TestFig11Harness:
    def test_set_sizes(self):
        assert len(build_set_a()) == 8
        assert len(build_set_b(6, MatchingVariant.MATCH_IS)) == 6
        assert len(build_set_b(30, MatchingVariant.MATCH_EQ)) == 30

    def test_set_b_minimum_size(self):
        with pytest.raises(ValueError):
            build_set_b(5, MatchingVariant.MATCH_IS)

    @pytest.mark.parametrize("variant", list(MatchingVariant))
    def test_measure_validates_expected_outcome(self, variant):
        m = measure_matching(variant, 10, iterations=50)
        assert m.matched == variant.matches
        assert m.seconds_per_match > 0

    def test_formatting(self):
        measurements = [
            measure_matching(v, s, iterations=20)
            for v in MatchingVariant
            for s in (6, 10)
        ]
        table = fig11_table(measurements)
        assert "match/eq" in table
        chart = fig11_chart(measurements)
        assert "Figure 11" in chart


class TestDutyHarness:
    def test_rows_and_formatting(self):
        rows = run_duty_cycle_analysis()
        assert any("note" in r for r in rows)
        table = duty_table(rows)
        assert "listen" in table


def experiments(*args):
    return repro_main(["experiments", *args])


class TestRunner:
    def test_quick_single_experiment(self, capsys):
        assert experiments("--quick", "--only", "duty") == 0
        out = capsys.readouterr().out
        assert "[duty]" in out
        assert "listen" in out

    def test_quick_model_and_micro(self, capsys):
        assert experiments("--quick", "--only", "model") == 0
        assert experiments("--quick", "--only", "micro") == 0
        out = capsys.readouterr().out
        assert "analytical traffic model" in out
        assert "footprint" in out

    def test_only_is_repeatable(self, capsys):
        assert experiments("--quick", "--only", "model", "--only", "micro") == 0
        out = capsys.readouterr().out
        assert "[model]" in out
        assert "[micro]" in out

    def test_jobs_runs_sections_through_campaign_pool(self, capsys):
        assert experiments(
            "--quick", "--only", "model", "--only", "micro", "--jobs", "2"
        ) == 0
        out = capsys.readouterr().out
        # both sections present, in canonical order, with timing lines
        assert out.index("[model]") < out.index("[micro]")
        assert "analytical traffic model" in out
        assert "footprint" in out
        assert "(model took" in out and "(micro took" in out

    def test_jobs_spread_a_figures_trials_not_its_numbers(self, capsys, tmp_path):
        """``--jobs N`` runs the fig8 campaign's 16 quick trials through
        the worker pool; the report is the serial one but for the
        timing line."""
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"report-{jobs}.md"
            assert experiments(
                "--quick", "--only", "fig8", "--jobs", jobs,
                "--output", str(out),
            ) == 0
            outputs.append([
                line for line in out.read_text().splitlines()
                if not line.startswith("(fig8 took")
            ])
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        assert any("savings at 4 sources" in line for line in outputs[0])
        assert "Figure 8: bytes/event vs sources" in outputs[0]
        assert "B/event  o=with suppression   x=without suppression" in outputs[0]
        assert outputs[0][:2] == ["# Experiment report", ""]


class TestClaims:
    def test_only_offers_exactly_the_claims_sections(self, capsys):
        """``--only``'s choices are a literal in ``repro.__main__`` (the
        parser must not import the table); they are the sections the
        table's rows name, in report order."""
        with pytest.raises(SystemExit):
            experiments("--help")
        usage = capsys.readouterr().out
        choices = re.search(r"--only \{([^}]*)\}", usage).group(1).split(",")
        assert tuple(choices) == claims.SECTIONS
        assert {claim.section for claim in claims.CLAIMS} == set(claims.SECTIONS)

    def test_every_row_names_a_source_and_a_band(self):
        for claim in claims.CLAIMS:
            assert claim.source in CAMPAIGNS or claim.source in claims.SOURCES
            low, high = claim.band
            assert low <= high, claim
            assert claim.paper and claim.basis, claim

    def test_every_row_names_an_experiment_of_design_md(self):
        design = (Path(__file__).resolve().parent.parent / "DESIGN.md").read_text()
        ids = set(re.findall(r"^\| ([A-Z0-9/-]+) \|", design, re.M))
        assert {claim.id for claim in claims.CLAIMS} <= ids

    def test_a_missed_band_is_a_miss_and_exit_status_1(self, monkeypatch, capsys):
        """A synthetic row over the analytical traffic model whose band
        excludes its value: the full run prints ``MISS`` and exits 1,
        and builds no simulator on the way."""
        def no_simulation(*args, **kwargs):
            raise AssertionError("the model section ran a simulation")

        monkeypatch.setattr("repro.sim.kernel.Simulator.__init__", no_simulation)
        impossible = claims.Claim(
            "TRAFMODEL", "model", "traffic-model", "aggregated B/event, 1 source",
            lambda model: model.bytes_per_event(1, True), (0.0, 1.0), "990",
            "a band no model value falls in",
        )
        monkeypatch.setattr(claims, "CLAIMS", claims.CLAIMS + (impossible,))
        assert experiments("--only", "model") == 1
        out = capsys.readouterr().out
        misses = [line for line in out.splitlines() if line.startswith("MISS")]
        assert len(misses) == 1 and "990.6" in misses[0]
        assert out.count("PASS") == len(claims.section_claims("model")) - 1
        # --quick judges nothing: the same row prints, unjudged, exit 0.
        assert experiments("--quick", "--only", "model") == 0
        out = capsys.readouterr().out
        assert "MISS" not in out and "PASS" not in out
        assert out.count("----  TRAFMODEL") == 5
