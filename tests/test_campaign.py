"""Tests for the campaign subsystem: specs, store, pool, resume, CLI.

Trial functions used by the pool tests live at module level so worker
processes can resolve them by ``tests.test_campaign:<name>`` path.
Cross-process state (crash-once markers, interrupt limits) goes through
the filesystem, never through pickled closures.
"""

import os
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.analysis import load_trace, mean_ci, summarize_campaign
from repro.campaign import (
    Campaign,
    CampaignProgress,
    ResultStore,
    aggregate,
    canonical_json,
    format_pivot,
    format_table,
    pivot,
    run_campaign,
    trial_key,
)
from repro.campaign.builtin import (
    demo_campaign,
    demo_trial,
    get_campaign,
    hierarchy_trial,
    plan_trial,
    report_table,
)
from repro.campaign.pool import CampaignReport, TrialOutcome
from repro.campaign.spec import TrialSpec, code_version
from repro.shard import ShardPlan, run_oracle
from repro.sim.rng import make_rng


# ---------------------------------------------------------------------------
# trial functions resolvable from worker processes


def recording_trial(params, seed):
    """Deterministic result; leaves a ran-marker per execution."""
    directory = Path(params["dir"])
    marker = directory / f"ran-{params['x']}"
    marker.write_text(str(int(marker.read_text() or 0) + 1 if marker.exists() else 1))
    rng = make_rng(seed, "recording")
    return {"x": params["x"], "value": params["x"] + rng.random()}


def interruptible_trial(params, seed):
    """Like recording_trial, but simulates Ctrl-C once the on-disk
    execution budget (``<dir>/limit``) is exhausted."""
    directory = Path(params["dir"])
    limit_file = directory / "limit"
    limit = int(limit_file.read_text()) if limit_file.exists() else 10**9
    if len(list(directory.glob("ran-*"))) >= limit:
        raise KeyboardInterrupt
    return recording_trial(params, seed)


def crash_once_trial(params, seed):
    """Kills its worker process on first execution, succeeds after."""
    directory = Path(params["dir"])
    marker = directory / f"crashed-{params['x']}"
    if not marker.exists():
        marker.write_text("")
        os._exit(17)
    return {"x": params["x"], "seed": seed}


def fail_once_trial(params, seed):
    directory = Path(params["dir"])
    marker = directory / f"failed-{params['x']}"
    if not marker.exists():
        marker.write_text("")
        raise RuntimeError("first attempt fails")
    return {"x": params["x"]}


def _campaign(trial, tmp_path, name="t", grid=None, fixed=None, **kwargs):
    fixed = dict(fixed or {})
    fixed["dir"] = str(tmp_path)
    return Campaign(
        name=name,
        trial=f"tests.test_campaign:{trial}",
        grid=grid or {"x": [1, 2, 3, 4]},
        fixed=fixed,
        **kwargs,
    )


def _executions(tmp_path):
    return sum(
        int(marker.read_text()) for marker in Path(tmp_path).glob("ran-*")
    )


# ---------------------------------------------------------------------------
# spec expansion and trial keys


class TestSpec:
    def test_expansion_is_deterministic(self):
        a = demo_campaign().expand()
        b = demo_campaign().expand()
        assert [s.key for s in a] == [s.key for s in b]
        assert [s.seed for s in a] == [s.seed for s in b]
        assert [s.index for s in a] == list(range(len(a)))

    def test_replicates_fan_out_distinct_seeds(self):
        campaign = demo_campaign()
        specs = campaign.expand()
        by_point = {}
        for spec in specs:
            by_point.setdefault(spec.params["x"], []).append(spec.seed)
        for seeds in by_point.values():
            assert len(seeds) == campaign.replicates
            assert len(set(seeds)) == len(seeds)

    def test_explicit_seeds_pinned(self, tmp_path):
        campaign = _campaign("recording_trial", tmp_path, seeds=[100, 101])
        specs = campaign.expand()
        assert sorted({s.seed for s in specs}) == [100, 101]

    def test_root_seed_changes_derived_seeds_and_keys(self):
        a = demo_campaign(root_seed=1).expand()
        b = demo_campaign(root_seed=2).expand()
        assert [s.seed for s in a] != [s.seed for s in b]
        assert {s.key for s in a}.isdisjoint({s.key for s in b})

    def test_key_sensitive_to_config_seed_and_code(self):
        version = code_version("repro.campaign.builtin:demo_trial")
        base = trial_key("c", "t", {"x": 1}, 7, version)
        assert trial_key("c", "t", {"x": 2}, 7, version) != base
        assert trial_key("c", "t", {"x": 1}, 8, version) != base
        assert trial_key("c", "t", {"x": 1}, 7, "deadbeef") != base
        # key order in the params dict must not matter
        assert trial_key("c", "t", {"a": 1, "b": 2}, 7, version) == trial_key(
            "c", "t", {"b": 2, "a": 1}, 7, version
        )

    def test_any_package_source_rekeys_every_trial(self, tmp_path, monkeypatch):
        """A result is computed by the stack under the trial, not by the
        module that names it: at PR 19 editing a preset's default left
        ``cached=6`` and the old table."""
        tree = tmp_path / "pkg"
        (tree / "sub").mkdir(parents=True)
        (tree / "__init__.py").write_text("")
        recipe = tree / "sub" / "recipe.py"
        recipe.write_text("SEND_INTERVAL = 1.0\n")
        monkeypatch.setattr(
            "repro.campaign.spec.package_sources",
            lambda: sorted(tree.rglob("*.py")),
        )
        campaign = _campaign("recording_trial", tmp_path)
        before = [spec.key for spec in campaign.expand()]
        assert [spec.key for spec in campaign.expand()] == before
        recipe.write_text("SEND_INTERVAL = 2.0\n")
        after = [spec.key for spec in campaign.expand()]
        assert set(before).isdisjoint(after)

    def test_the_real_listing_is_the_package(self):
        from repro.campaign.spec import package_sources

        names = {path.name for path in package_sources()}
        assert {"scenario.py", "builtin.py", "channel.py"} <= names
        assert all(path.suffix == ".py" for path in package_sources())

    def test_rejects_overlapping_fixed_and_grid(self):
        with pytest.raises(ValueError):
            Campaign(name="x", trial="m:f", grid={"a": [1]}, fixed={"a": 2})

    def test_spec_run_executes_in_process(self):
        spec = demo_campaign().expand()[0]
        result = spec.run()
        assert result == demo_trial(dict(spec.params), spec.seed)


# ---------------------------------------------------------------------------
# result store


class TestStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = demo_campaign().expand()[0]
        assert spec.key not in store
        store.put(spec, {"value": 1.5}, meta={"elapsed": 0.1})
        assert spec.key in store
        payload = store.get(spec.key)
        assert payload["result"] == {"value": 1.5}
        assert payload["params"] == dict(spec.params)
        assert payload["meta"]["elapsed"] == 0.1
        assert store.stats()["entries"] == 1
        assert list(store.keys()) == [spec.key]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = demo_campaign().expand()[0]
        path = store.put(spec, {"v": 1})
        path.write_text("{not json")
        assert store.get(spec.key) is None

    @pytest.mark.parametrize("text", [
        "[]",            # killed `campaign run` with an AttributeError
        "{}",            # served as cached with result=None
        '{"result": 1',  # truncated: "cached" in status, re-run by run
    ])
    def test_malformed_entry_is_a_miss_everywhere(self, tmp_path, capsys,
                                                  text):
        store = ResultStore(tmp_path)
        campaign = demo_campaign(quick=True)
        run_campaign(campaign, store=store)
        spec = campaign.expand()[0]
        next(tmp_path.rglob(f"{spec.key}.json")).write_text(text)
        assert store.get(spec.key) is None

        assert repro_main(["campaign", "status", "demo", "--quick",
                           "--store", str(tmp_path)]) == 0
        assert "3 cached, 1 pending" in capsys.readouterr().out

        report = run_campaign(campaign, store=store)
        assert report.ok and report.done == 1 and report.cached == 3
        assert "demo: value by x" in report_table("demo", report)
        assert store.get(spec.key)["result"] is not None

    def test_clean_removes_selected_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = demo_campaign().expand()
        for spec in specs:
            store.put(spec, {"v": spec.index})
        assert store.clean([specs[0].key]) == 1
        assert specs[0].key not in store
        assert store.clean() == len(specs) - 1
        assert store.stats()["entries"] == 0

    def test_no_temp_file_litter(self, tmp_path):
        store = ResultStore(tmp_path)
        for spec in demo_campaign().expand():
            store.put(spec, {"v": 1})
        assert not list(Path(tmp_path).rglob("*.tmp"))


# ---------------------------------------------------------------------------
# serial execution, caching, resume


class TestSerialRuns:
    def test_run_and_full_cache_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = _campaign("recording_trial", tmp_path)
        first = run_campaign(campaign, store=store)
        assert first.ok and first.done == 4 and first.cached == 0
        assert _executions(tmp_path) == 4

        second = run_campaign(campaign, store=store)
        assert second.ok and second.done == 0 and second.cached == 4
        assert _executions(tmp_path) == 4  # nothing re-executed
        assert [o.result for o in second.outcomes] == [
            o.result for o in first.outcomes
        ]

    def test_force_reruns_everything(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = _campaign("recording_trial", tmp_path)
        run_campaign(campaign, store=store)
        report = run_campaign(campaign, store=store, force=True)
        assert report.done == 4 and report.cached == 0

    def test_interrupt_then_resume_serves_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = _campaign("interruptible_trial", tmp_path)
        (tmp_path / "limit").write_text("2")

        first = run_campaign(campaign, store=store)
        assert first.interrupted
        assert first.done == 2 and first.pending == 2
        completed = [o.spec.key for o in first.outcomes if o.ok]
        stored_bytes = {key: store.get_bytes(key) for key in completed}

        (tmp_path / "limit").write_text("1000000")
        second = run_campaign(campaign, store=store)
        assert not second.interrupted and second.ok
        assert second.cached == 2 and second.done == 2
        # cached trials were served byte-identically, not rewritten
        for key, raw in stored_bytes.items():
            assert store.get_bytes(key) == raw
        # and only the pending trials executed
        assert _executions(tmp_path) == 4

    def test_max_trials_partial_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = _campaign("recording_trial", tmp_path)
        first = run_campaign(campaign, store=store, max_trials=3)
        assert first.done == 3 and first.pending == 1
        second = run_campaign(campaign, store=store)
        assert second.cached == 3 and second.done == 1

    def test_cache_invalidation_on_config_change(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        base = _campaign("recording_trial", tmp_path, fixed={"variant": 1})
        run_campaign(base, store=store)
        changed = _campaign("recording_trial", tmp_path, fixed={"variant": 2})
        report = run_campaign(changed, store=store)
        assert report.cached == 0 and report.done == 4
        # both generations coexist in the content-addressed store
        assert store.stats()["entries"] == 8

    def test_cache_invalidation_on_code_version_change(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        campaign = _campaign("recording_trial", tmp_path)
        run_campaign(campaign, store=store)
        import repro

        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        report = run_campaign(campaign, store=store)
        assert report.cached == 0 and report.done == 4

    def test_failed_trial_retries_then_succeeds(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = _campaign("fail_once_trial", tmp_path, grid={"x": [1]})
        report = run_campaign(campaign, store=store, retries=1)
        assert report.ok
        assert report.outcomes[0].attempts == 2

    def test_failed_trial_exhausts_retries(self, tmp_path):
        campaign = _campaign("fail_once_trial", tmp_path, grid={"x": [9]})
        report = run_campaign(campaign, retries=0)
        assert report.failed == 1 and not report.ok
        assert "first attempt fails" in report.outcomes[0].error


# ---------------------------------------------------------------------------
# parallel execution


class TestParallelRuns:
    def test_results_identical_to_serial_any_jobs(self, tmp_path):
        campaign = demo_campaign()
        serial = run_campaign(campaign, jobs=1,
                              store=ResultStore(tmp_path / "a"))
        parallel = run_campaign(campaign, jobs=2,
                                store=ResultStore(tmp_path / "b"))
        assert serial.ok and parallel.ok
        by_key_serial = {
            o.spec.key: canonical_json(o.result) for o in serial.outcomes
        }
        by_key_parallel = {
            o.spec.key: canonical_json(o.result) for o in parallel.outcomes
        }
        assert by_key_serial == by_key_parallel

    def test_worker_crash_is_retried(self, tmp_path):
        campaign = _campaign("crash_once_trial", tmp_path, grid={"x": [1]})
        report = run_campaign(campaign, jobs=2, retries=2)
        assert report.ok
        assert report.outcomes[0].attempts >= 2

    def test_worker_crash_exhausts_retries(self, tmp_path):
        report = run_campaign(
            _campaign("always_crash_trial", tmp_path, grid={"x": [1]}),
            jobs=2,
            retries=1,
        )
        assert report.failed == 1
        assert "crashed" in report.outcomes[0].error

    def test_timeout_is_enforced(self, tmp_path):
        campaign = Campaign(
            name="spin",
            trial="repro.campaign.builtin:demo_trial",
            grid={"spin": [0.0, 2.0]},
        )
        report = run_campaign(campaign, jobs=2, timeout=0.7)
        statuses = {
            o.spec.params["spin"]: o.status for o in report.outcomes
        }
        assert statuses[0.0] == "done"
        assert statuses[2.0] == "timeout"


def always_crash_trial(params, seed):
    os._exit(21)


# ---------------------------------------------------------------------------
# progress, logging, aggregation


def _stub_outcome(params, result):
    """A finished trial of ``params`` that was never run."""
    return TrialOutcome(
        spec=TrialSpec("stub", "m:f", 0, params, 1, "key"),
        status="done", result=result,
    )


class TestProgressAndAggregation:
    def test_trace_records_and_jsonl_log(self, tmp_path):
        log_path = tmp_path / "campaign.jsonl"
        seen = []
        progress = CampaignProgress("demo", log_path=log_path)
        progress.trace.subscribe("campaign.trial", seen.append)
        report = run_campaign(
            demo_campaign(quick=True),
            store=ResultStore(tmp_path / "store"),
            progress=progress,
        )
        assert report.ok
        assert len(seen) == len(report.outcomes)
        records = load_trace(log_path)
        summary = summarize_campaign(records)
        assert summary.trials == len(report.outcomes)
        assert summary.done == len(report.outcomes)
        assert summary.failed == 0 and not summary.interrupted
        # wall/CPU accounting made it into the log
        assert summary.wall_time >= 0.0

    def test_eta_and_snapshot(self):
        progress = CampaignProgress("x")
        progress.begin(4, jobs=2)
        assert progress.eta() is None
        snap = progress.snapshot()
        assert snap["total"] == 4 and snap["pending"] == 4

    def test_aggregate_mean_ci(self, tmp_path):
        report = run_campaign(demo_campaign())
        rows = aggregate(report.outcomes, "value", by=("x",))
        assert [row.params["x"] for row in rows] == [1, 2, 3, 4]
        assert all(row.n == 2 for row in rows)
        table = format_table(rows, "value", title="demo")
        assert "demo" in table and "±" in table

    def test_pivot_table(self, tmp_path):
        report = run_campaign(get_campaign("demo", quick=True))
        table = pivot(report.outcomes, "value", row="x", col="x")
        text = format_pivot(table, "x", title="pivot")
        assert "pivot" in text

    def test_tables_order_by_value_and_take_the_papers_columns(self):
        """Rows and columns sorted by ``repr`` read 10.0, 20.0, 5.0."""
        table = {
            interval: {flag: mean_ci([interval]) for flag in (True, False)}
            for interval in (10.0, 5.0, 20.0)
        }
        lines = format_pivot(table, "interval").splitlines()
        assert [line.split()[0] for line in lines[1:]] == [
            "5.0", "10.0", "20.0",
        ]
        assert lines[0].split() == ["interval", "False", "True"]
        named = format_pivot(
            table, "interval", columns={True: "with", False: "without"}
        )
        assert named.splitlines()[0].split() == ["interval", "with", "without"]
        transposed = {
            flag: {interval: cells[flag] for interval, cells in table.items()}
            for flag in (True, False)
        }
        header = format_pivot(transposed, "flag").splitlines()[0]
        assert header.split() == ["flag", "5.0", "10.0", "20.0"]

    def test_rows_that_do_not_compare_order_by_text(self):
        outcomes = [
            _stub_outcome({"mode": mode, "x": x}, {"value": 1.0})
            for mode in ("flat", None) for x in (10.0, 5.0)
        ]
        rows = aggregate(outcomes, "value", by=("mode", "x"))
        assert [(row.params["mode"], row.params["x"]) for row in rows] == [
            ("flat", 5.0), ("flat", 10.0), (None, 5.0), (None, 10.0),
        ]

    def test_report_counts(self, tmp_path):
        campaign = _campaign("recording_trial", tmp_path, grid={"x": [1, 2]})
        report = run_campaign(campaign)
        assert report.done == 2
        assert len(report.results()) == 2
        assert report.wall_time >= 0.0


class TestBuiltinSweeps:
    """The `hierarchy` and `dtn` campaigns are the only sweep surface
    for those subsystems: their grids hold the sizes the recorded
    headlines were measured at."""

    def test_full_grids_hold_the_headline_points(self):
        points = [
            spec.params for spec in get_campaign("hierarchy").expand()
        ]
        for mode in ("flat", "clustered", "rendezvous"):
            for columns in (16, 32):
                assert any(
                    p["mode"] == mode and "shards" not in p
                    and p["columns"] == p["rows"] == columns
                    for p in points
                )
        points = [spec.params for spec in get_campaign("dtn").expand()]
        assert {(p["mode"], p["duty"], p["custody"]) for p in points} == {
            (mode, duty, custody)
            for mode in ("flat", "clustered")
            for duty in (0.0, 0.3, 0.6)
            for custody in (False, True)
        }

    def test_quick_grids_stay_small(self):
        points = [
            spec.params
            for spec in get_campaign("hierarchy", quick=True).expand()
        ]
        assert [p["mode"] for p in points] == [
            "flat", "clustered", "rendezvous",
        ]
        assert all(
            (p["columns"], p["rows"], p.get("shards", 1)) == (10, 10, 1)
            for p in points
        )
        points = [
            spec.params for spec in get_campaign("dtn", quick=True).expand()
        ]
        assert len(points) == 4 and all("mode" not in p for p in points)

    def test_figure_grids_hold_the_papers_points(self):
        """Section 6: "the mean of five 30-minute experiments", "three
        20-minute experiments"."""
        fig8 = get_campaign("fig8").expand()
        assert sorted(
            (s.params["sources"], s.params["suppression"], s.seed) for s in fig8
        ) == sorted(
            (sources, suppression, seed)
            for sources in (1, 2, 3, 4) for suppression in (True, False)
            for seed in range(100, 105)
        )
        assert {s.params["duration"] for s in fig8} == {1800.0}
        fig9 = get_campaign("fig9").expand()
        assert sorted(
            (s.params["num_lights"], s.params["nested"], s.seed) for s in fig9
        ) == sorted(
            (lights, nested, seed)
            for lights in (1, 2, 3, 4) for nested in (True, False)
            for seed in range(200, 203)
        )
        assert {s.params["duration"] for s in fig9} == {1200.0}
        # The quick forms are the quick report's: 2 seeds x 600 s.
        for name, seeds in (("fig8", [100, 101]), ("fig9", [200, 201])):
            quick = get_campaign(name, quick=True).expand()
            assert sorted({s.seed for s in quick}) == seeds
            assert {s.params["duration"] for s in quick} == {600.0}

    def test_hierarchy_trial_row(self):
        params = {
            "mode": "clustered", "columns": 8, "rows": 8, "region": 4,
            "duration": 20.0,
        }
        row = hierarchy_trial(params, seed=5)
        counters, messages = row["hierarchy"], row["messages_by_class"]
        assert 0 < counters["heads"] < 64
        assert counters["suppressed_interests"] > 0
        assert messages["interest"] + messages["control"] > 0
        nbytes = row["bytes_by_class"]
        assert nbytes["interest"] + nbytes["control"] > 0
        # 4 region blocks x 9 sends each.
        assert row["offered"] == 36
        assert 0 < row["app_delivered"] == len(row["delivery_times"])
        assert min(row["delivery_times"]) >= 2.0  # the first send
        # Shard count is an execution detail, never a result.
        assert hierarchy_trial(dict(params, shards=2), seed=5) == row

    def test_hierarchy_trial_keeps_its_own_workload(self):
        """Its defaults are not the preset's (0.5 s sends, 18 m): forget
        them and the quick table's flat count reads 1408 where it reads
        1559."""
        report = run_campaign(get_campaign("hierarchy", quick=True))
        control = {
            o.spec.params["mode"]: o.result["messages_by_class"]["interest"]
            + o.result["messages_by_class"]["control"]
            for o in report.outcomes
        }
        assert control == {"flat": 1559, "clustered": 881, "rendezvous": 248}
        assert {o.result["offered"] for o in report.outcomes} == {56}

    def test_tables_grow_a_column_only_for_a_swept_axis(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.builtin.hierarchy_trial",
            lambda params, seed: {
                "messages_by_class": {
                    "interest": params["columns"], "control": 0,
                },
                "app_delivered": 5, "offered": 10,
            },
        )
        quick = get_campaign("hierarchy", quick=True)
        table = report_table("hierarchy", run_campaign(quick))
        assert "columns" not in table and "rows" not in table
        full = get_campaign("hierarchy")
        table = report_table("hierarchy", run_campaign(full))
        assert table.splitlines()[1].split()[:3] == ["columns", "rows", "mode"]

    def test_a_campaign_without_a_table_prints_its_claims_values(self):
        """The fallback table: the trial count, then each claims row
        read off the campaign with its value beside its band."""
        from repro.campaign.claims import CLAIMS, claim_line

        report = run_campaign(get_campaign("ablation-gear", quick=True))
        lines = report_table("ablation-gear", report).splitlines()
        rows = [c for c in CLAIMS if c.source == "ablation-gear"]
        assert len(rows) == 2
        assert lines == ["(2 successful trials)"] + [
            claim_line(c, c.metric(report.outcomes), judged=False)
            for c in rows
        ]
        partial = run_campaign(
            get_campaign("ablation-gear", quick=True), max_trials=1
        )
        lines = report_table("ablation-gear", partial).splitlines()
        assert lines[0] == "(1 successful trials)" and len(lines) == 3
        assert all("no value (division by zero)" in line for line in lines[1:])


class TestPlanTrial:
    """Every full-stack campaign is one trial function over the
    registry; its result is the plan's whole outcome."""

    def test_a_front_door_is_its_plan(self):
        point = {
            "scenario": "resilience", "fault": "link-flap",
            "exploratory_interval": 5.0, "duration": 80.0,
        }
        assert plan_trial(point, 3) == run_oracle(ShardPlan.named(
            "resilience", {"fault": "link-flap", "exploratory_interval": 5.0},
            3, duration=80.0,
        ))
        point = {
            "scenario": "dtn", "duty": 0.3, "custody": False,
            "mode": "clustered", "duration": 120.0,
        }
        assert plan_trial(point, 2) == run_oracle(ShardPlan(
            "dtn", {"duty": 0.3, "custody": False, "mode": "clustered"},
            2, 120.0, 1,
        ))

    def test_duration_defaults_to_the_presets(self):
        outcome = plan_trial(
            {"scenario": "line", "nodes": 2, "send_interval": 10.0}, 1
        )
        assert max(outcome["delivery_times"]) > 30.0  # line runs 60 s

    def test_a_misspelt_grid_key_is_refused(self):
        with pytest.raises(ValueError, match="no param dutycycle"):
            plan_trial({"scenario": "line", "dutycycle": 0.5}, 1)

    def test_never_sentinels_still_print(self):
        """``None`` ("never repaired", "never completed") is -1 in a
        table: aggregation needs numbers."""
        repaired = {"report": {"faults": [{"repair_intervals": None}]}}
        table = report_table("resilience", CampaignReport("resilience", [
            _stub_outcome(
                {"fault": "partition", "exploratory_interval": 5.0}, repaired
            ),
        ]))
        assert "-1.0 ± 0.0 (n=1)" in table
        stalled = {
            "delivery_ratio": 0.5, "completed_at": None, "unattributed": 0,
            "custody_stats": {"depth_high_water": 3},
        }
        table = report_table("dtn", CampaignReport("dtn", [
            _stub_outcome({"duty": 0.6, "custody": True}, stalled),
        ]))
        completed = table[table.index("completed at"):]
        assert "-1.0 ± 0.0 (n=1)" in completed
        assert "custody on" in table

    def test_report_renders_a_store_entry(self, tmp_path, capsys):
        campaign = Campaign(
            name="one", trial="repro.campaign.builtin:plan_trial",
            fixed={"scenario": "resilience", "fault": "crash",
                   "duration": 60.0},
            seeds=[1],
        )
        store = ResultStore(tmp_path)
        assert run_campaign(campaign, store=store).ok
        (entry,) = tmp_path.glob("*/*.json")
        capsys.readouterr()
        assert repro_main(["report", str(entry)]) == 0
        out = capsys.readouterr().out
        assert "resilience run: fault=crash seed=1" in out
        assert "invariants: all held" in out
