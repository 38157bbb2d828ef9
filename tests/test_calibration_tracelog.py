"""Tests for the calibration reports and trace logging tools."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.tracelog import (
    TraceLogger,
    load_trace,
    summarize_trace,
)
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio import DistancePropagation, TablePropagation, Topology
from repro.sim import TraceBus
from repro.testbed import SensorNetwork
from repro.testbed.calibration import (
    LinkReport,
    link_reports,
    summarize,
    usable_graph,
    validate_isi,
)
from tests.tracing import TraceCollector


class TestLinkReports:
    def _model(self):
        topo = Topology()
        topo.add_node(1, 0.0, 0.0)
        topo.add_node(2, 15.0, 0.0)
        topo.add_node(3, 100.0, 0.0)
        return topo, DistancePropagation(topo, asymmetry=0.0)

    def test_out_of_range_pairs_excluded(self):
        topo, prop = self._model()
        reports = link_reports(topo, prop)
        pairs = {(r.a, r.b) for r in reports}
        assert (1, 2) in pairs
        assert (1, 3) not in pairs

    def test_usable_and_asymmetry(self):
        report = LinkReport(a=1, b=2, prr_ab=0.9, prr_ba=0.7)
        assert report.usable
        assert report.asymmetry == pytest.approx(0.2)
        assert not report.one_way_only

    def test_one_way_only_flagged(self):
        report = LinkReport(a=1, b=2, prr_ab=0.9, prr_ba=0.1)
        assert report.one_way_only
        assert not report.usable

    def test_usable_graph_and_summary(self):
        topo = Topology()
        for i, x in enumerate([0.0, 15.0, 30.0, 45.0]):
            topo.add_node(i, x, 0.0)
        prop = DistancePropagation(topo, asymmetry=0.0)
        graph = usable_graph(topo, prop)
        assert 1 in graph[0]
        assert 2 not in graph[0]
        summary = summarize(topo, prop, pairs_of_interest=[(0, 3)])
        assert summary.connected
        assert summary.diameter_hops == 3
        assert summary.hop_counts[(0, 3)] == 3

    def test_disconnected_summary(self):
        topo = Topology()
        topo.add_node(1, 0.0, 0.0)
        topo.add_node(2, 500.0, 0.0)
        prop = DistancePropagation(topo)
        # (1, 9) and (9, 1) name a node the topology does not have.
        pairs = [(1, 2), (1, 9), (9, 1)]
        summary = summarize(topo, prop, pairs_of_interest=pairs)
        assert not summary.connected
        assert summary.diameter_hops is None
        assert summary.hop_counts == dict.fromkeys(pairs)

    def test_one_node_summary(self):
        topo = Topology()
        topo.add_node(1, 0.0, 0.0)
        summary = summarize(topo, DistancePropagation(topo), [(1, 1)])
        assert summary.connected
        assert summary.diameter_hops == 0
        assert summary.hop_counts[(1, 1)] == 0


#: imports every module of the package, then checks the testbed text
STDLIB_ONLY = """
import importlib, pkgutil, repro
from repro.testbed.calibration import validate_isi
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
for seed in (1, 2, 3):
    checks = validate_isi(seed)
    assert all(checks.values()), (seed, checks)
print("ok")
"""


def test_runs_on_the_standard_library_alone():
    """With site-packages off (``-S``) every module still imports and
    the ISI calibration still holds: the package has no runtime
    dependency."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY], env=env,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


class TestIsiValidation:
    def test_all_textual_constraints_hold(self):
        checks = validate_isi()
        assert all(checks.values()), checks

    def test_holds_across_seeds(self):
        for seed in (1, 2, 3):
            checks = validate_isi(seed=seed)
            assert all(checks.values()), (seed, checks)


class TestTraceLogger:
    def _run_network(self, listen):
        """A short 3-node run under the listener ``listen(bus)`` makes."""
        net = SensorNetwork(Topology.line(3, spacing=15.0), seed=4)
        with listen(net.trace) as listener:
            sub = AttributeVector.builder().eq(Key.TYPE, "t").build()
            net.api(0).subscribe(sub, lambda a, m: None)
            pub = net.api(2).publish(
                AttributeVector.builder().actual(Key.TYPE, "t").build()
            )
            for i in range(5):
                net.sim.schedule(
                    2.0 + i, net.api(2).send, pub,
                    AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
                )
            net.run(until=15.0)
        return listener

    def test_in_memory_logging(self):
        collector = self._run_network(TraceCollector)
        assert collector.records
        categories = {r.category for r in collector.records}
        assert "diffusion.tx" in categories

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        logger = self._run_network(lambda bus: TraceLogger(bus, path))
        records = load_trace(path)
        assert len(records) == logger.records_written
        assert records[0].time <= records[-1].time

    def test_summary_statistics(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._run_network(lambda bus: TraceLogger(bus, path))
        summary = summarize_trace(load_trace(path))
        assert summary.record_count > 0
        assert summary.duration > 0
        assert summary.by_category.get("diffusion.tx", 0) > 0
        # Every node transmitted something (interests at least).
        assert set(summary.tx_bytes_by_node) == {0, 1, 2}

    def test_bytes_payload_serialized(self, tmp_path):
        bus = TraceBus()
        path = tmp_path / "trace.jsonl"
        logger = TraceLogger(bus, path=path)
        bus.emit(1.0, "custom", node=1, blob=b"\x01\x02", obj=object())
        logger.close()
        records = load_trace(path)
        assert records[0].data["blob"] == "0102"
        assert "object" in records[0].data["obj"]

    def test_nested_containers_round_trip(self, tmp_path):
        bus = TraceBus()
        path = tmp_path / "trace.jsonl"
        with TraceLogger(bus, path=path):
            bus.emit(
                1.0, "custom", node=1,
                sites=[{"site": "a", "count": 2}, {"site": "b", "count": 1}],
                nested={"inner": {"values": (1, 2, 3)}, "blob": b"\xff"},
            )
        record = load_trace(path)[0]
        # Containers serialize recursively, not as one big repr string.
        assert record.data["sites"] == [
            {"site": "a", "count": 2},
            {"site": "b", "count": 1},
        ]
        assert record.data["nested"]["inner"]["values"] == [1, 2, 3]
        assert record.data["nested"]["blob"] == "ff"

    def test_context_manager_closes_and_unsubscribes(self, tmp_path):
        bus = TraceBus()
        path = tmp_path / "trace.jsonl"
        with TraceLogger(bus, path=path) as logger:
            bus.emit(1.0, "custom", node=1)
        # After close the logger is off the bus: later emits are not
        # recorded and the file is flushed with what was written.
        bus.emit(2.0, "custom", node=1)
        assert logger.records_written == 1
        assert len(load_trace(path)) == 1

    def test_close_is_idempotent(self, tmp_path):
        logger = TraceLogger(TraceBus(), tmp_path / "trace.jsonl")
        logger.close()
        logger.close()

    def test_load_trace_tolerates_truncated_final_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"t": 1.0, "cat": "tx", "node": 1, "data": {}}\n'
            '{"t": 2.0, "cat": "rx", "no'  # writer died mid-record
        )
        records = load_trace(path)
        assert len(records) == 1
        assert records[0].category == "tx"

    def test_load_trace_rejects_malformed_middle_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"t": 1.0, "cat": "tx", "node": 1, "data": {}}\n'
            "not json at all\n"
            '{"t": 3.0, "cat": "rx", "node": 2, "data": {}}\n'
        )
        with pytest.raises(ValueError):
            load_trace(path)

    def test_load_trace_ignores_trailing_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"t": 1.0, "cat": "tx", "node": 1, "data": {}}\n\n\n'
        )
        assert len(load_trace(path)) == 1


class TestSummarizeEdgeCases:
    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary.record_count == 0
        assert summary.duration == 0.0
        assert summary.by_category == {}
        assert summary.tx_bytes_by_node == {}

    def test_unknown_categories_counted_not_fatal(self):
        from repro.sim import TraceRecord

        records = [
            TraceRecord(time=0.5, category="exotic.event", node=7, data={}),
            TraceRecord(time=1.5, category="exotic.event", node=7, data={}),
        ]
        summary = summarize_trace(records)
        assert summary.by_category == {"exotic.event": 2}
        assert summary.duration == 1.0

    def test_campaign_summary_without_end_record(self):
        from repro.analysis.tracelog import summarize_campaign
        from repro.sim import TraceRecord

        records = [
            TraceRecord(time=0.0, category="campaign.begin", node=None,
                        data={"total": 3}),
            TraceRecord(time=1.0, category="campaign.trial", node=None,
                        data={"status": "done", "index": 0, "elapsed": 1.0}),
            TraceRecord(time=2.0, category="campaign.trial", node=None,
                        data={"status": "failed", "index": 1}),
            # No campaign.end: the run was interrupted before finishing.
        ]
        summary = summarize_campaign(records)
        assert summary.trials == 3
        assert summary.done == 1
        assert summary.failed == 1
        assert summary.executed == 2
        assert summary.wall_time == 0.0
        assert not summary.interrupted

    def test_campaign_summary_empty(self):
        from repro.analysis.tracelog import summarize_campaign

        summary = summarize_campaign([])
        assert summary.trials == 0
        assert summary.executed == 0
