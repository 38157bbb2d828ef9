"""Tests for the shard-sync profiler and flight recorder.

The profiler opens up the PR-6 sharded kernel: every window is
attributed to the promise term that bound its horizon, per-shard window
sizes become distributions, barrier stall and exchange volume are
measured, and cross-shard metrics merge into the parent registry.  The
flight recorder keeps the last trace events per node for postmortems.
Everything here is read-only instrumentation, so the closing test holds
a telemetry-enabled sharded run bit-identical to the oracle.
"""

import json
import math

import pytest

from repro.shard import (
    ShardPlan,
    ShardRuntime,
    ShardStats,
    next_horizon,
    run_oracle,
    run_sharded,
    sync_profile,
)
from repro.shard.worker import ExportedTx
from repro.sim import FlightRecorder, TraceBus, use_registry
from repro.sim.trace import TraceRecord

FLOOD_PLAN = ShardPlan(
    scenario="flood", params={"columns": 8, "rows": 4},
    seed=11, duration=5.0, shards=2,
)


def export(src=0, start=1.0, end=1.01):
    return ExportedTx(
        src=src, start=start, end=end, nbytes=27,
        payload=b"x", link_dst=None,
    )


# ---------------------------------------------------------------------------
# Promise / horizon term attribution


class TestPromiseTerms:
    def test_empty_queue_is_idle(self):
        rt = ShardRuntime(FLOOD_PLAN, rank=0)
        for event in list(rt.sim.pending_events()):
            event.cancel()
        rt._move_events.clear()
        assert rt.promise() == (math.inf, "idle")

    def test_move_term_attributed(self):
        plan = ShardPlan(
            scenario="mobility", params={"columns": 8, "rows": 4},
            seed=11, duration=8.0, shards=2,
        )
        rt = ShardRuntime(plan, rank=0)
        # Strip everything but the move barriers: the promise must then
        # be the first move, attributed as such.
        for event in list(rt.sim.pending_events()):
            if event.name != "shard.move":
                event.cancel()
        value, term = rt.promise()
        assert term == "move"
        assert value == rt._move_events[0].time

    def test_next_horizon_duration_term(self):
        assert next_horizon([], [], 0.002, 10.0) == (10.0, "duration")

    def test_next_horizon_propagates_peer_term(self):
        horizon, term = next_horizon(
            [(3.0, "attempt"), (7.0, "move")], [], 0.002, 10.0
        )
        assert (horizon, term) == (3.0, "attempt")

    def test_next_horizon_attributes_export_term(self):
        horizon, term = next_horizon(
            [(5.0, "attempt")], [export(end=2.0)], 0.002, 10.0
        )
        assert horizon == pytest.approx(2.002)
        assert term == "export"


# ---------------------------------------------------------------------------
# ShardStats and the merged profile


class TestShardStats:
    def test_as_dict_round_trips(self):
        stats = ShardStats(rank=1, owned=20)
        stats.rounds = 3
        stats.stall_seconds = 0.5
        stats.exchange_bytes = 1024
        stats.windows_by_term = {"attempt": 2, "duration": 1}
        data = stats.as_dict()
        # JSON round trip preserves every field...
        reloaded = json.loads(json.dumps(data))
        assert reloaded == data
        # ...and rebuilding from the dict reproduces the object.
        assert ShardStats(**reloaded) == stats
        # The dict is a copy: mutating it cannot reach the live stats.
        data["windows_by_term"]["attempt"] = 99
        assert stats.windows_by_term["attempt"] == 2

    def test_sync_profile_folds_terms_and_imbalance(self):
        profile = sync_profile([
            {"windows_by_term": {"attempt": 3, "export": 1},
             "busy_seconds": 1.0, "stall_seconds": 0.1,
             "exchange_bytes": 100},
            {"windows_by_term": {"attempt": 2},
             "busy_seconds": 3.0, "stall_seconds": 0.3,
             "exchange_bytes": 50},
        ])
        assert profile["windows"] == 6
        assert profile["windows_by_term"] == {"attempt": 5, "export": 1}
        assert profile["stall_seconds"] == [0.1, 0.3]
        assert profile["exchange_bytes"] == 150
        assert profile["imbalance"] == pytest.approx(1.5)

    def test_sync_profile_empty(self):
        assert sync_profile([])["imbalance"] == 1.0


# ---------------------------------------------------------------------------
# End-to-end profiling through run_sharded


class TestRunShardedProfile:
    @pytest.fixture(scope="class")
    def inline_result(self):
        return run_sharded(FLOOD_PLAN, transport="inline")

    def test_attribution_covers_every_window(self, inline_result):
        for stats in inline_result["shards"]:
            assert sum(stats["windows_by_term"].values()) == stats["rounds"]
        profile = inline_result["profile"]
        assert profile["windows"] == sum(
            s["rounds"] for s in inline_result["shards"]
        )

    def test_window_histograms_match_round_counts(self, inline_result):
        for stats, snapshot in zip(
            inline_result["shards"], inline_result["metrics"]
        ):
            name = f"shard.window_span{{shard={stats['rank']}}}"
            span = snapshot["histograms"][name]
            assert span["count"] == stats["rounds"]
            assert span["p50"] is not None
            events = snapshot["histograms"][
                f"shard.window_events{{shard={stats['rank']}}}"
            ]
            assert events["count"] == stats["rounds"]
            assert events["sum"] == stats["events"]

    def test_inline_exchange_bytes_measured(self, inline_result):
        assert all(
            s["exchange_bytes"] > 0 for s in inline_result["shards"]
        )
        assert inline_result["profile"]["exchange_bytes"] == sum(
            s["exchange_bytes"] for s in inline_result["shards"]
        )

    def test_per_term_counters_in_snapshots(self, inline_result):
        for stats, snapshot in zip(
            inline_result["shards"], inline_result["metrics"]
        ):
            rank = stats["rank"]
            for term, count in stats["windows_by_term"].items():
                name = f"shard.windows{{shard={rank},term={term}}}"
                assert snapshot["counters"][name] == count

    def test_process_transport_reports_stall_and_bytes(self):
        result = run_sharded(
            FLOOD_PLAN, transport="process", timeout=120
        )
        assert result["outcome"] == run_oracle(FLOOD_PLAN)
        for stats in result["shards"]:
            assert stats["exchange_bytes"] > 0
            assert stats["stall_seconds"] >= 0.0
            assert sum(stats["windows_by_term"].values()) == stats["rounds"]

    def test_worker_metrics_merge_into_parent_registry(self):
        with use_registry() as registry:
            run_sharded(FLOOD_PLAN, transport="process", timeout=120)
        snap = registry.snapshot()
        # Per-shard labeled instruments from inside the workers arrived.
        assert snap["counters"]["shard.rounds{shard=0}"] > 0
        assert snap["counters"]["shard.rounds{shard=1}"] > 0
        assert (
            snap["histograms"]["shard.window_span{shard=0}"]["count"] > 0
        )

    def test_telemetry_enabled_run_stays_bit_identical(self):
        """The acceptance criterion: instrumentation must not perturb
        outcomes.  A sharded run under an active registry equals the
        oracle and an unregistered sharded run, bit for bit."""
        bare = run_sharded(FLOOD_PLAN, transport="inline")
        with use_registry():
            telemetered = run_sharded(FLOOD_PLAN, transport="inline")
        oracle = run_oracle(FLOOD_PLAN)
        assert telemetered["outcome"] == oracle
        assert telemetered["outcome"] == bare["outcome"]


# ---------------------------------------------------------------------------
# FlightRecorder


class TestFlightRecorder:
    def record(self, bus, t, cat, node, **data):
        bus.emit(t, cat, node, **data)

    def test_rings_are_bounded_per_node(self):
        bus = TraceBus()
        recorder = FlightRecorder(bus, per_node_capacity=4)
        for i in range(10):
            self.record(bus, float(i), "x", 1, i=i)
            self.record(bus, float(i), "x", 2, i=i)
        assert recorder.records_seen == 20
        assert recorder.retained == 8
        kept = [r.data["i"] for r in recorder.snapshot() if r.node == 1]
        assert kept == [6, 7, 8, 9]

    def test_snapshot_preserves_arrival_order(self):
        bus = TraceBus()
        recorder = FlightRecorder(bus, per_node_capacity=8)
        self.record(bus, 1.0, "a", 2)
        self.record(bus, 1.0, "b", 1)
        self.record(bus, 1.0, "c", None)
        assert [r.category for r in recorder.snapshot()] == ["a", "b", "c"]

    def test_dump_is_loadable_with_header(self, tmp_path):
        from repro.analysis.tracelog import load_trace, summarize_trace

        bus = TraceBus()
        recorder = FlightRecorder(bus, per_node_capacity=16)
        for i in range(5):
            self.record(bus, float(i), "demo.tx", i % 2, payload=b"\x01")
        path = tmp_path / "dump.jsonl"
        written = recorder.dump(path, reason="test", extra="context")
        assert written == 5
        records = load_trace(path)
        assert records[0].category == "flight.header"
        assert records[0].data["reason"] == "test"
        assert records[0].data["extra"] == "context"
        assert records[0].data["records"] == 5
        assert len(records) == 6
        assert summarize_trace(records).by_category["demo.tx"] == 5

    def test_detach_stops_recording(self):
        bus = TraceBus()
        recorder = FlightRecorder(bus)
        self.record(bus, 1.0, "x", 0)
        recorder.detach()
        self.record(bus, 2.0, "x", 0)
        assert recorder.records_seen == 1
        assert not recorder.attached

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(TraceBus(), per_node_capacity=0)

    def test_record_dataclass_untouched(self):
        # The recorder stores the TraceRecord instances themselves.
        bus = TraceBus()
        recorder = FlightRecorder(bus)
        self.record(bus, 1.5, "y", 3, k="v")
        (record,) = recorder.snapshot()
        assert record == TraceRecord(
            time=1.5, category="y", node=3, data={"k": "v"}
        )
