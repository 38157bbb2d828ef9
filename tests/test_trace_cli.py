"""End-to-end tests for ``python -m repro run --trace`` (the recorder,
repro.shard.cli) and ``python -m repro trace`` (the analysis,
repro.analysis.tracecli)."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.tracelog import load_trace


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One tiny recorded line run shared by the read-only subcommands."""
    out = tmp_path_factory.mktemp("trace") / "run.jsonl"
    rc = repro_main([
        "run", "line", "--trace", str(out), "-p", "nodes=3",
        "--duration", "25", "-p", "send_interval=4", "--seed", "7",
    ])
    assert rc == 0
    return out


class TestRecord:
    def test_writes_jsonl_with_trailing_aggregates(self, recorded):
        records = load_trace(recorded)
        assert records, "the run should emit trace records"
        categories = {r.category for r in records}
        assert "diffusion.tx" in categories
        assert "app.deliver" in categories
        assert "metrics.snapshot" in categories
        assert "kernel.profile" in categories
        # Aggregates come last, after the simulated run.
        assert records[-1].category in ("metrics.snapshot", "kernel.profile")

    def test_every_line_is_valid_json(self, recorded):
        for line in recorded.read_text().splitlines():
            json.loads(line)

    def test_record_prints_summary_line(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        repro_main([
            "run", "line", "--trace", str(out), "-p", "nodes=2",
            "--duration", "10", "--seed", "3",
        ])
        stdout = capsys.readouterr().out
        assert "recorded" in stdout and str(out) in stdout


class TestSummarize:
    def test_reports_counts_and_metrics(self, recorded, capsys):
        assert repro_main(["trace", "summarize", str(recorded)]) == 0
        stdout = capsys.readouterr().out
        assert "records:" in stdout
        assert "by category:" in stdout
        assert "diffusion.tx" in stdout
        assert "metrics:" in stdout
        assert "diffusion.delivered" in stdout


class TestPaths:
    def test_shows_routes_and_loss_table(self, recorded, capsys):
        assert repro_main(["trace", "paths", str(recorded)]) == 0
        stdout = capsys.readouterr().out
        assert "data messages:" in stdout
        assert "delivered" in stdout
        # Routes render as arrow chains with millisecond latencies.
        assert "ms)->" in stdout
        assert "loss attribution" in stdout

    def test_all_flag_includes_undelivered(self, recorded, capsys):
        assert repro_main(["trace", "paths", str(recorded), "--all"]) == 0
        assert "data messages:" in capsys.readouterr().out


class TestTimeline:
    def test_follows_one_trace_id(self, recorded, capsys):
        records = load_trace(recorded)
        trace_id = next(
            r.data["trace"] for r in records if r.category == "app.deliver"
        )
        assert repro_main(["trace", "timeline", str(recorded), trace_id]) == 0
        stdout = capsys.readouterr().out
        assert "path.origin" in stdout
        assert "app.deliver" in stdout
        assert "delivered at node" in stdout

    def test_unknown_trace_id_fails(self, recorded, capsys):
        assert repro_main(["trace", "timeline", str(recorded), "999.999"]) == 1
        assert "no records mention" in capsys.readouterr().err


class TestProfile:
    def test_reports_event_loop_sites(self, recorded, capsys):
        assert repro_main(["trace", "profile", str(recorded)]) == 0
        stdout = capsys.readouterr().out
        assert "events:" in stdout
        assert "max queue depth:" in stdout
        assert "site" in stdout

    def test_trace_without_profile_fails(self, tmp_path, capsys):
        bare = tmp_path / "bare.jsonl"
        bare.write_text(
            json.dumps({"t": 0.0, "cat": "diffusion.tx", "node": 1}) + "\n"
        )
        assert repro_main(["trace", "profile", str(bare)]) == 1
        assert "no kernel.profile" in capsys.readouterr().err


class TestUnreadableTrace:
    """A file that is no trace is a usage error on every subcommand,
    like ``repro report`` on a file that is no result."""

    BAD = {
        "missing": None,
        "directory": "",
        "malformed-middle-line": (
            '{"t": 1.0, "cat": "tx", "node": 1, "data": {}}\n'
            "not json at all\n"
            '{"t": 3.0, "cat": "rx", "node": 2, "data": {}}\n'
        ),
        "not-a-record": '[1, 2]\n{"t": 1.0, "cat": "tx", "node": 1}\n',
        "not-utf8": b"\xff\xfe\x00garbage\n",
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("action, extra", [
        ("summarize", []), ("paths", []), ("timeline", ["1.1"]),
        ("profile", []),
    ])
    def test_is_a_usage_error(self, tmp_path, capsys, action, extra, kind):
        path = tmp_path / "bad.jsonl"
        content = self.BAD[kind]
        if kind == "directory":
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["trace", action, str(path), *extra])
        assert exit_info.value.code == 2
        assert "cannot read trace:" in capsys.readouterr().err


class TestDispatch:
    def test_module_entrypoint_routes_trace(self, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        rc = repro_main([
            "run", "line", "--trace", str(out),
            "-p", "nodes=2", "--duration", "8", "--seed", "5",
        ])
        assert rc == 0
        assert out.exists()
        assert repro_main(["trace", "summarize", str(out)]) == 0
        assert "records:" in capsys.readouterr().out

    def test_isi_scenario_records(self, tmp_path):
        out = tmp_path / "isi.jsonl"
        rc = repro_main([
            "run", "fig8", "--trace", str(out),
            "-p", "sources=1", "--duration", "20", "--seed", "2",
        ])
        assert rc == 0
        records = load_trace(out)
        assert any(r.category == "diffusion.tx" for r in records)


class TestShards:
    @pytest.fixture(scope="class")
    def shards_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("shards") / "shards.jsonl"
        rc = repro_main([
            "run", "flood", "--shards", "2",
            "-p", "columns=8", "-p", "rows=4", "--duration", "5",
            "--seed", "11", "--trace", str(out),
        ])
        assert rc == 0
        return out

    def test_report_attributes_all_windows(self, shards_out, capsys):
        rc = repro_main([
            "run", "flood", "--shards", "2",
            "-p", "columns=8", "-p", "rows=4", "--duration", "5",
            "--seed", "11",
        ])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "window attribution" in stdout
        assert " 100.0%" in stdout
        assert "barrier stall" in stdout
        assert "load imbalance" in stdout
        assert "window span" in stdout

    def test_out_is_valid_tracelog(self, shards_out):
        records = load_trace(shards_out)
        by_cat = {}
        for r in records:
            by_cat.setdefault(r.category, []).append(r)
        assert len(by_cat["shard.stats"]) == 2
        assert len(by_cat["shard.profile"]) == 1
        assert len(by_cat["metrics.snapshot"]) == 1
        stats = by_cat["shard.stats"][0].data
        assert sum(stats["windows_by_term"].values()) == stats["rounds"]
        profile = by_cat["shard.profile"][0].data
        assert profile["windows"] == sum(
            s.data["rounds"] for s in by_cat["shard.stats"]
        )

    def test_summarize_reads_sharded_output(self, shards_out, capsys):
        """`trace summarize` on a `run --shards 2 --trace` JSONL: merged
        shard metrics render as counters."""
        assert repro_main(["trace", "summarize", str(shards_out)]) == 0
        stdout = capsys.readouterr().out
        assert "shard.stats" in stdout
        assert "metrics:" in stdout
        assert "shard.rounds{shard=0}" in stdout
        assert "shard.rounds{shard=1}" in stdout
