"""Tests for the `python -m repro` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import EXAMPLES, main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        inventory = out[out.index("subpackages"):]
        for name in ("naming", "core", "dtn", "hierarchy", "shard", "micro"):
            assert name in inventory
        assert "run --list" in out

    def test_experiments_quick_single(self, capsys):
        assert main(["experiments", "--quick", "--only", "micro"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out
        assert "interests bridged down: 1" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_example_names_match_disk(self):
        examples_dir = Path(__file__).resolve().parents[1] / "examples"
        on_disk = {p.name for p in examples_dir.glob("*.py")}
        assert set(EXAMPLES.values()) == on_disk

    def test_example_runs(self, capsys):
        assert main(["example", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "after interest propagation" in out


class TestCommandTree:
    """Every command is declared in one parser tree, `repro.__main__`."""

    @pytest.mark.parametrize("path", [
        ["campaign", "run"], ["campaign", "status"], ["campaign", "clean"],
        ["campaign", "list"], ["trace", "summarize"], ["trace", "paths"],
        ["trace", "timeline"], ["trace", "profile"], ["faults", "validate"],
        ["run"], ["report"], ["experiments"], ["example"], ["info"],
    ])
    def test_every_command_path_has_help(self, path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*path, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: repro {' '.join(path)}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["trace", "faults"])
    def test_a_command_with_no_subcommand_prints_usage(self, command, capsys):
        assert main([command]) == 2
        assert f"usage: repro {command}" in capsys.readouterr().out

    def test_building_the_tree_loads_no_command_stack(self):
        # `info` parses through the whole tree; each handler, and the
        # package behind it, loads only when its own command runs.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "info"],
            capture_output=True, text=True, env=env, check=True,
        )
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in done.stderr.splitlines()}
        assert "repro.naming" in imported  # the log reads as expected
        for package in ("repro.campaign", "repro.analysis", "repro.faults",
                        "repro.shard"):
            assert not any(name == package or name.startswith(package + ".")
                           for name in imported), package


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

    @pytest.mark.parametrize("action, message", [
        # the first three died in a TypeError traceback (exit 1)
        ('{"kind": "node-crash", "node": 1, "at": "soon"}',
         "(node-crash): field 'at' must be a finite number"),
        ('{"kind": "partition", "groups": 5, "at": 1, "heal_at": 2}',
         "(partition): field 'groups' must be a list of lists"),
        ('{"kind": "link-flap", "a": 0, "b": 1, "at": 1, "period": "x"}',
         "(link-flap): field 'period' must be a finite number or null"),
        # a crash at t=inf ran and exited 0
        ('{"kind": "node-crash", "node": 1, "at": 1e400}',
         "(node-crash): field 'at' must be a finite number"),
    ])
    def test_plan_field_of_the_wrong_type_is_a_usage_error(
        self, tmp_path, capsys, action, message
    ):
        plan = tmp_path / "plan.json"
        plan.write_text('{"actions": [%s]}' % action)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "resilience", "-p", f"plan=@{plan}"])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

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
        # text that is not JSON stayed text, and bool("False") is True:
        # each ran the opposite of what it asked for and exited 0
        (["fig8", "-p", "suppression=False", "--duration", "1"],
         "suppression must be true or false, got 'False'"),
        (["fig9", "-p", "nested=no", "--duration", "1"],
         "nested must be true or false, got 'no'"),
        (["regional", "-p", "monitors=False", "--duration", "1"],
         "monitors must be true or false"),
        (["dtn", "-p", "custody=no", "--duration", "1"],
         "custody must be true or false"),
        (["mule", "-p", "caches=False", "--duration", "1"],
         "caches must be true or false"),
        # a JSON number is not a flag either
        (["fig8", "-p", "suppression=0", "--duration", "1"],
         "suppression must be true or false, got 0"),
        # counts were truncated: two sources ran under the label 2.7
        (["fig8", "-p", "sources=2.7", "--duration", "1"],
         "sources must be a whole number, got 2.7"),
        (["flood", "-p", "columns=10.5", "--duration", "1"],
         "columns must be a whole number, got 10.5"),
        (["line", "-p", "nodes=3.5", "--duration", "1"],
         "nodes must be a whole number"),
        # a time before the run died with a SimulationError traceback
        (["mobility", "-p", "move_start=-1"], "move_start must not be"),
        (["mobility", "-p", "move_interval=-1"], "move_interval must not"),
        (["diffusion", "-p", "send_start=-1"], "send_start must not be"),
        (["mule", "-p", "send_start=-1"], "send_start must not be"),
        # more counts that were truncated
        (["mobility", "-p", "movers=1.5"], "movers must be a whole number"),
        (["mobility", "-p", "move_steps=2.5"],
         "move_steps must be a whole number"),
        (["resilience", "-p", "monitor_max_entries=2.5", "--duration", "1"],
         "monitor_max_entries must be a whole number"),
        # range()'s own message, then no pairs, or a sink at a negative id
        (["diffusion", "-p", "pairs=regions", "-p", "region=0"],
         "region must be within [4, 5], got 0"),
        (["diffusion", "-p", "pairs=regions", "-p", "region=1"],
         "region must be within [4, 5]"),
        (["diffusion", "-p", "pairs=regions", "-p", "region=2"],
         "region must be within [4, 5]"),
        (["diffusion", "-p", "pairs=regions", "-p", "region=2.5"],
         "region must be a whole number"),
        (["diffusion", "-p", "pairs=regions", "-p", "region=-8"],
         "region must be within [4, 5]"),
        # JSON parses NaN and Infinity: int(nan) died in a traceback
        (["flood", "-p", "spacing=NaN", "--duration", "1"],
         "spacing must be positive, got nan"),
        (["flood", "-p", "spacing=Infinity", "--duration", "1"],
         "spacing must be finite, got inf"),
        (["line", "-p", "spacing=NaN", "--duration", "1"],
         "spacing must be positive, got nan"),
        (["line", "-p", "spacing=Infinity", "--duration", "1"],
         "spacing must be finite, got inf"),
        # a NaN delay corrupted the event heap ("time went backwards")
        (["dtn", "-p", "block_interval=NaN", "--duration", "50"],
         "block_interval must be positive, got nan"),
        # these three ran on garbage timers and exited 0
        (["line", "-p", "interest_jitter=NaN", "--duration", "1"],
         "interest_jitter must be non-negative and finite"),
        (["line", "-p", "reinforcement_jitter=-1", "--duration", "1"],
         "reinforcement_jitter must be non-negative and finite"),
        (["mobility", "-p", "move_start=NaN"],
         "move_start must be finite, got nan"),
        # int(nan) named no param; a fractional round count was truncated
        (["dtn", "-p", "payload_bytes=NaN", "--duration", "50"],
         "payload_bytes must be a whole number, got nan"),
        (["mule", "-p", "receiver_rounds=2.5", "--duration", "5"],
         "receiver_rounds must be a whole number, got 2.5"),
    ])
    def test_hostile_value_is_a_usage_error(self, args, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", *args])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_a_plan_below_one_shard_is_refused(self):
        # a campaign grid point with shards=0 ran the single queue
        from repro.shard import ShardPlan

        for shards in (0, -3):
            with pytest.raises(ValueError, match="shards must be at least 1"):
                ShardPlan.named("line", {}, 1, shards=shards)

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

    def test_log_lines_are_tracelog_records(self, capsys, tmp_path):
        """The log goes through the tracelog encoder: each line reads
        back through ``load_trace``, byte-equal to the hand-built
        ``{"t", "cat", "node", "data"}`` line the log used to write."""
        import json

        from repro.analysis import load_trace

        store = str(tmp_path / "store")
        log = tmp_path / "log.jsonl"
        for status in ("done", "cached"):       # a run, then its rerun
            assert main(["campaign", "run", "demo", "--quick", "--store",
                         store, "--log", str(log)]) == 0
            lines = log.read_text().splitlines(keepends=True)
            records = load_trace(log)
            assert len(records) == len(lines) == 6
            assert [r.category for r in records] == (
                ["campaign.begin"] + ["campaign.trial"] * 4 + ["campaign.end"]
            )
            assert {r.data["status"] for r in records[1:5]} == {status}
            for line, record in zip(lines, records):
                assert line == json.dumps({
                    "t": record.time, "cat": record.category,
                    "node": None, "data": record.data,
                }) + "\n"

    def test_unknown_campaign_is_a_usage_error_listing_the_names(
        self, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "run", "nosuch"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown campaign 'nosuch'" in err
        assert "demo" in err and "resilience" in err

    def test_unknown_subcommand_prints_help(self, capsys):
        assert main(["campaign"]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("args, message", [
        # ran every trial but the last, then reported one pending
        (["--max-trials", "-1"], "--max-trials: must be at least 0"),
        # marked a trial that finished at once as a timeout
        (["--timeout", "-1", "--jobs", "2"], "--timeout: must be positive"),
        # silently meant no retry
        (["--retries", "-5"], "--retries: must be at least 0"),
        # these two silently ran serially
        (["--jobs", "0"], "--jobs: must be positive"),
        ("experiments --only model --jobs -2".split(),
         "--jobs: must be positive"),
        # these ran the single queue and exited 0
        ("run line --shards 0".split(), "--shards: must be positive"),
        ("run line --shards -3".split(), "--shards: must be positive"),
        # validated against no nodes at all
        ("faults validate plan.json --nodes -4".split(),
         "--nodes: must be positive"),
        # silently dropped rows
        ("trace profile t.jsonl --limit -2".split(),
         "--limit: must be positive"),
        ("trace paths t.jsonl --limit -2".split(),
         "--limit: must be positive"),
    ])
    def test_out_of_range_numeric_flag_is_a_usage_error(
        self, capsys, tmp_path, args, message
    ):
        if args[0] not in ("experiments", "run", "faults", "trace"):
            args = ["campaign", "run", "demo", "--quick",
                    "--store", str(tmp_path / "store")] + args
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
