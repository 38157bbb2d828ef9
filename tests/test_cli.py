"""Tests for the `python -m repro` command-line interface."""

import pytest

from repro.__main__ import EXAMPLES, main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        inventory = out[out.index("subpackages"):]
        for name in ("naming", "core", "dtn", "hierarchy", "shard", "query"):
            assert name in inventory
        assert "run --list" in out

    def test_experiments_quick_single(self, capsys):
        assert main(["experiments", "--quick", "--only", "micro"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_example_names_match_disk(self):
        from pathlib import Path

        examples_dir = Path(__file__).resolve().parents[1] / "examples"
        on_disk = {p.name for p in examples_dir.glob("*.py")}
        assert set(EXAMPLES.values()) == on_disk

    def test_example_runs(self, capsys):
        assert main(["example", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "after interest propagation" in out


class TestRunCli:
    def test_list_names_every_scenario_with_its_params(self, capsys):
        from repro.shard import SCENARIOS

        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name, scenario in SCENARIOS.items():
            assert f"\n{name}: " in "\n" + out
            for key in scenario.defaults:
                assert f"{key}=" in out
        assert 'fault="crash"' in out and "duty=0.6" in out

    def test_unknown_param_is_a_usage_error_listing_the_keys(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "mule", "-p", "duty=0.5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "no param duty" in err
        assert "custody" in err and "payload_bytes" in err

    def test_bad_plan_file_is_a_usage_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"actions": [{"kind": "asteroid"}]}')
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "resilience", "-p", f"plan=@{plan}"])
        assert exit_info.value.code == 2
        assert "unknown kind" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        # a zero beacon interval rescheduled itself at delay 0 forever
        (["flood", "-p", "interval=0", "--duration", "1"], "interval must"),
        # a zero send interval divided by zero counting the sends
        (["diffusion", "-p", "send_interval=0"], "send_interval must"),
        (["hierarchy", "-p", "mode=clustered", "-p", "hierarchy=5"],
         "must be an object"),
        # these two simulated nothing and exited 0
        (["fig8", "--duration", "-5"], "duration must"),
        (["flood", "-p", "columns=-1"], "columns must"),
        # an IndexError
        (["line", "-p", "nodes=0"], "nodes must"),
        # a misspelt override ran the default and exited 0
        (["hierarchy", "-p", "mode=clustered",
          "-p", 'hierarchy={"anounce_interval": 5}'], "no anounce_interval"),
        # a JSON object died mid-run (AttributeError); it is now read
        # like `hierarchy`, so an unknown key is what gets refused
        (["dtn", "-p", 'dtn_config={"retry_base": 2}'], "no retry_base"),
        # an empty object sent as one block, delivery_ratio 1.0, exit 0
        (["dtn", "-p", "payload_bytes=100"], "payload_bytes must"),
    ])
    def test_hostile_value_is_a_usage_error(self, args, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", *args])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_refused_subset_build_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "resilience", "--shards", "2"])
        assert exit_info.value.code == 2
        assert "subset build" in capsys.readouterr().err

    def test_exit_code_follows_the_invariants(self, tmp_path, capsys):
        """What `faults run --demo-violation` demonstrated: a zero-entry
        gradient bound breaks at once and the lead-up is dumped."""
        flight = tmp_path / "flight.jsonl"
        rc = main([
            "run", "resilience", "-p", "monitor_max_entries=0",
            "-p", f"flight_recorder={flight}", "--duration", "30",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "INVARIANT VIOLATIONS" in out and "flight recorder:" in out
        assert len(flight.read_text().splitlines()) > 1

    def test_composition_from_the_command_line(self, capsys):
        rc = main([
            "run", "resilience", "-p", "mode=clustered", "--duration", "60",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "invariants: all held" in out and "hierarchy:" in out

    def test_report_of_a_missing_file_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", str(tmp_path / "nope.json")])
        assert exit_info.value.code == 2
        assert "cannot read result" in capsys.readouterr().err


class TestCampaignCli:
    def test_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "scale-aggregation" in out
        assert "demo" in out

    def test_run_then_cached_rerun(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(
            ["campaign", "run", "demo", "--quick", "--store", store]
        ) == 0
        first = capsys.readouterr().out
        assert "done=4" in first
        assert "value by x" in first

        assert main(
            ["campaign", "run", "demo", "--quick", "--store", store]
        ) == 0
        second = capsys.readouterr().out
        assert "cached=4" in second
        # identical aggregate table on a 100% cache hit
        assert first.splitlines()[-2:] == second.splitlines()[-2:]

    def test_status_and_clean(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        main(["campaign", "run", "demo", "--quick", "--store", store])
        capsys.readouterr()
        assert main(
            ["campaign", "status", "demo", "--quick", "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "4 cached, 0 pending" in out
        assert main(
            ["campaign", "clean", "demo", "--quick", "--store", store]
        ) == 0
        assert "removed 4 entries" in capsys.readouterr().out

    def test_run_writes_jsonl_log(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        log = tmp_path / "log.jsonl"
        assert main(
            ["campaign", "run", "demo", "--quick", "--store", store,
             "--log", str(log)]
        ) == 0
        from repro.analysis import load_trace, summarize_campaign

        summary = summarize_campaign(load_trace(log))
        assert summary.trials == 4 and summary.done == 4

    def test_unknown_subcommand_prints_help(self, capsys):
        assert main(["campaign"]) == 2
        assert "usage" in capsys.readouterr().out.lower()
