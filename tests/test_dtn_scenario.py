"""End-to-end tests for the disruption scenarios: the partitioned grid
and the 2-partition data mule."""

import pytest

from repro.dtn.scenario import dtn_run, partition_windows
from repro.shard import ShardPlan, run_oracle


class TestPartitionWindows:
    def test_duty_cycle_windows(self):
        windows = partition_windows(30.0, 260.0, duty=0.6, period=50.0)
        assert windows == [(30.0, 60.0), (80.0, 110.0), (130.0, 160.0),
                           (180.0, 210.0)]
        # Every window leaves the heal tail intact.
        assert all(until <= 230.0 for _, until in windows)

    def test_zero_duty_means_no_windows(self):
        assert partition_windows(30.0, 260.0, duty=0.0, period=50.0) == []

    @pytest.mark.parametrize("duty", [1.5, -0.1, float("nan")])
    def test_duty_outside_unit_interval_rejected(self, duty):
        # Past 1 the windows would overlap: the first heal would lift a
        # partition the second window still claims.
        with pytest.raises(ValueError, match="duty"):
            partition_windows(30.0, 260.0, duty=duty, period=50.0)

    @pytest.mark.parametrize("period", [0.0, -50.0])
    def test_non_positive_period_rejected(self, period):
        # `at += period` would never reach the horizon.
        with pytest.raises(ValueError, match="period"):
            partition_windows(30.0, 260.0, duty=0.6, period=period)

    def test_cli_rejects_duty_as_a_usage_error(self, capsys):
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit) as exit_info:
            repro_main(["run", "dtn", "-p", "duty=1.5"])
        assert exit_info.value.code == 2
        assert "duty" in capsys.readouterr().err


def mule_run(seed, custody):
    """The ``mule`` preset's outcome."""
    return run_oracle(ShardPlan.named("mule", {"custody": custody}, seed))


class TestMule:
    """Endpoints never share a connected component until the final
    heal: only carried custody can deliver."""

    def test_baseline_cannot_cross_the_gap(self):
        result = mule_run(seed=1, custody=False)
        assert result["delivered"] == 0
        assert result["invariants_ok"]
        # Every lost block still has a cause on record.
        assert result["unattributed"] == 0
        assert sum(result["attribution"].values()) == result["offered"]

    def test_custody_carries_blocks_across(self):
        baseline = mule_run(seed=1, custody=False)
        armed = mule_run(seed=1, custody=True)
        assert armed["invariants_ok"], armed["violations"][:3]
        # The acceptance bar: at least 2x the disrupted baseline.
        assert armed["delivered"] >= max(1, 2 * max(1, baseline["delivered"]))
        # Delivery happened *while* the endpoints were partitioned —
        # proof the mule carried custody over the gap, not just that
        # the final heal let traffic through.
        assert armed["delivery_during_partition"] > 0
        assert armed["unattributed"] == 0
        # The carrier handoff machinery actually engaged.
        stats = armed["custody_stats"]
        assert stats["accepted"] > 0
        assert stats["beacons"] > 0
        assert stats["custody_acks"] > 0

    def test_dtn_config_object_caps_every_store(self):
        # A JSON object of DtnConfig overrides, read like `hierarchy`
        # (a dict here used to die on attribute access mid-run).  A
        # store holds at most `capacity` after each accept's eviction.
        capped = run_oracle(ShardPlan.named(
            "mule", {"custody": True, "dtn_config": {"capacity": 2}}, 1
        ))
        stats = capped["custody_stats"]
        assert stats["depth_high_water"] <= 2 + 1
        assert stats["expired"] > mule_run(seed=1, custody=True)[
            "custody_stats"]["expired"]

    def test_mule_replay_is_deterministic(self):
        assert mule_run(seed=4, custody=True) == mule_run(
            seed=4, custody=True
        )


class TestGrid:
    def test_custody_does_not_hurt_the_healthy_grid(self):
        # Over seeds 1-20 the object is complete at 59-331 s, on the old
        # stream loss draw and on the order-free one alike.
        result = dtn_run(seed=1, duty=0.0, custody=True, duration=360.0)
        assert result["completed"]
        assert result["delivered"] == result["offered"]
        assert result["invariants_ok"], result["violations"][:3]

    def test_disrupted_grid_custody_vs_baseline(self):
        baseline = dtn_run(seed=1, duty=0.6, custody=False)
        armed = dtn_run(seed=1, duty=0.6, custody=True)
        for result in (baseline, armed):
            assert result["invariants_ok"], result["violations"][:3]
            assert result["unattributed"] == 0
            lost = result["offered"] - result["delivered"]
            assert sum(result["attribution"].values()) == lost
        assert armed["delivered"] >= baseline["delivered"]
        assert armed["custody_stats"]["accepted"] > 0

    def test_armed_grid_replay_is_deterministic(self):
        first = dtn_run(seed=3, duty=0.6, custody=True)
        assert first["custody_stats"]["accepted"] > 0
        assert dtn_run(seed=3, duty=0.6, custody=True) == first

    def test_flight_recorder_dump(self, tmp_path):
        path = tmp_path / "dtn-flight.jsonl"
        result = dtn_run(
            seed=1, duty=0.6, duration=120.0, custody=True,
            flight_recorder=str(path),
        )
        info = result["flight_recorder"]
        assert info["path"] == str(path)
        assert info["records"] > 0
        assert path.exists()
