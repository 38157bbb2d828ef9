"""End-to-end resilience scenarios: four fault types, each invariant-
monitored and required to reconverge within a bounded number of
exploratory intervals, plus the bit-identical replay guarantee."""

import json

import pytest

from repro.faults import FaultPlan, builtin_names, builtin_plan
from repro.__main__ import main as repro_main
from repro.shard import ShardPlan, run_oracle

#: reconvergence bound for all scenario assertions: repair must land
#: within this many exploratory intervals of the heal.
K_INTERVALS = 4.0


def run_resilience(seed, duration, **params):
    """The ``resilience`` preset's outcome under ``params``."""
    return run_oracle(
        ShardPlan.named("resilience", params, seed, duration=duration)
    )


def assert_reconverged(result):
    assert result["invariants_ok"], result["violations"]
    fault = result["report"]["faults"][0]
    assert fault["time_to_repair"] is not None, "never repaired"
    assert fault["repair_intervals"] <= K_INTERVALS
    assert fault["delivery_after"] is not None
    assert fault["delivery_after"] > 0.2


class TestReconvergence:
    def test_crash_reboot_reconverges(self):
        result = run_resilience(
            fault="crash", seed=7, duration=140.0, exploratory_interval=8.0
        )
        assert_reconverged(result)
        # The reboot wiped state (clear_state True is in the timeline).
        heal = [e for e in result["timeline"] if e["phase"] == "heal"][0]
        assert heal["clear_state"] is True

    def test_link_flap_reconverges(self):
        result = run_resilience(
            fault="link-flap", seed=7, duration=140.0, exploratory_interval=8.0
        )
        assert_reconverged(result)
        # Three flaps = three inject/heal pairs.
        assert len(result["timeline"]) == 6

    def test_partition_heal_on_twelve_node_grid(self):
        # Satellite: the 4x3 (12-node) grid splits down the middle for
        # 50 s — twice the 25 s gradient lifetime, so every cross-cut
        # gradient expires — then heals.  Delivery must collapse during
        # the cut and resume within K_INTERVALS exploratory intervals.
        result = run_resilience(
            fault="partition", seed=7, duration=160.0, exploratory_interval=8.0
        )
        assert_reconverged(result)
        fault = result["report"]["faults"][0]
        assert fault["heal_at"] - fault["inject_at"] == pytest.approx(50.0)
        assert fault["delivery_during"] < 0.2

    def test_clock_skew_resyncs_within_rounds(self):
        result = run_oracle(ShardPlan.named("timesync", {}, 3))
        assert result["invariants_ok"], result["violations"]
        # The skew actually landed...
        peak = max(error for _, error in result["errors"])
        assert peak >= result["skew"] * 0.9
        # ...and sync rounds pulled the clock back within two rounds.
        assert result["repaired_at"] is not None
        assert result["repair_rounds"] <= 2.0

    def test_corruption_window_reconverges(self):
        result = run_resilience(
            fault="corruption", seed=7, duration=140.0, exploratory_interval=8.0
        )
        assert_reconverged(result)
        assert result["fragments_corrupted"] > 0


class TestDeterminism:
    def test_seeded_run_replays_bit_identically(self):
        kwargs = dict(
            fault="crash", seed=11, duration=120.0, exploratory_interval=8.0
        )
        first = run_resilience(**kwargs)
        second = run_resilience(**kwargs)
        assert first == second

    def test_different_seeds_differ(self):
        first = run_resilience(fault="crash", seed=1, duration=100.0)
        second = run_resilience(fault="crash", seed=2, duration=100.0)
        assert first["report"] != second["report"]

    def test_result_is_json_safe(self):
        result = run_resilience(fault="brownout", seed=4, duration=100.0)
        restored = json.loads(json.dumps(result))
        assert restored["fault"] == "brownout"


class TestBrownoutUnderDutyCycle:
    """The ``brownout`` plan on a duty-cycled network: one sleep schedule
    per radio, so the relay's MAC runs the brownout's 20% and every
    fragment it starts falls in that frame's awake slice."""

    @pytest.mark.parametrize("reverse_ties", [False, True])
    def test_relay_runs_the_brownout_duty_cycle(self, reverse_ties):
        import contextlib

        from repro.faults.scenarios import RELAY
        from repro.shard.runner import build_whole
        from tests.test_pins import pins

        order = pins.reversed_ties() if reverse_ties else contextlib.nullcontext()
        with order:
            net = build_whole(ShardPlan(
                "resilience", {"fault": "brownout", "duty_cycle": 0.5},
                1, 120.0, 1,
            ))
            stack = net.network.stack(RELAY)
            starts, duties = [], {}
            transmit = stack.modem.transmit_fragment

            def recorded(*args, **kwargs):
                starts.append(net.sim.now)
                return transmit(*args, **kwargs)

            stack.modem.transmit_fragment = recorded
            for t in (39.9, 40.0, 55.5, 69.9, 70.0, 100.0):
                net.sim.schedule_at(
                    t, lambda t=t: duties.__setitem__(t, stack.mac.duty_cycle),
                    priority=1,
                )
            net.sim.run(until=120.0)
        assert duties == {39.9: 0.5, 40.0: 0.2, 55.5: 0.2, 69.9: 0.2,
                          70.0: 0.5, 100.0: 0.5}
        browned = [t for t in starts if 40.0 <= t < 70.0]
        assert browned, "the relay forwards during the brownout"
        assert [t for t in browned if t % 1.0 >= 0.2] == []
        assert net.outcome()["invariants_ok"]


class TestBuiltins:
    def test_every_builtin_plan_validates_on_the_grid(self):
        for name in builtin_names():
            builtin_plan(name).validate(range(12))

    def test_unknown_builtin_rejected(self):
        from repro.faults import PlanError

        with pytest.raises(PlanError, match="unknown builtin"):
            builtin_plan("asteroid")


class TestCli:
    def test_validate_accepts_good_plan(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(builtin_plan("partition").to_json()))
        assert repro_main(["faults", "validate", str(plan_file)]) == 0
        assert "plan OK" in capsys.readouterr().out

    def test_validate_rejects_bad_plan(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(
            {"actions": [{"kind": "node-crash", "node": 99, "at": 1.0}]}
        ))
        assert repro_main(["faults", "validate", str(plan_file)]) == 1
        assert "invalid plan" in capsys.readouterr().err

    @pytest.mark.parametrize("action", [
        # a TypeError traceback
        '{"kind": "node-crash", "node": 1, "at": "soon"}',
        # printed "plan OK: ... horizon infs"
        '{"kind": "node-crash", "node": 1, "at": 1e400}',
    ])
    def test_validate_rejects_a_field_of_the_wrong_type(
        self, tmp_path, capsys, action
    ):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text('{"actions": [%s]}' % action)
        assert repro_main(["faults", "validate", str(plan_file)]) == 1
        assert "invalid plan: action 0 (node-crash): field 'at'" in (
            capsys.readouterr().err
        )

    def test_run_and_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        rc = repro_main([
            "run", "resilience", "-p", "fault=crash", "--seed", "3",
            "--duration", "100", "--out", str(out),
        ])
        assert rc == 0
        capsys.readouterr()
        assert repro_main(["report", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "node-crash" in rendered
        assert "invariants: all held" in rendered

    def test_run_custom_plan(self, tmp_path, capsys):
        plan = FaultPlan.from_json(builtin_plan("link-flap").to_json())
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan.to_json()))
        rc = repro_main([
            "run", "resilience", "-p", f"plan=@{plan_file}",
            "--seed", "3", "--duration", "100",
        ])
        assert rc == 0
        assert "fault=custom" in capsys.readouterr().out
