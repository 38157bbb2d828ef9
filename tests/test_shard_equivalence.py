"""Shard-count equivalence: the acceptance suite for ``repro.shard``.

The sharded kernel's contract is that shard count is an execution
detail, never a modelling choice: for any deterministic scenario the
merged K-shard outcome must be bit-identical to the single-queue
oracle's.  These tests sweep the three scenario families (flood,
mobility, diffusion) across 1/2/4 shards on the inline transport, plus
one process-transport case and one k-means-partition case, asserting
dict equality of the full outcome (including sorted delivery lists
where the scenario reports them).
"""

import functools

import pytest

from repro.shard import ShardPlan, run_oracle, run_sharded

# Small deployments with real boundary traffic; durations chosen so
# every scenario family does meaningful work (diffusion data flows
# start at t=2.0 and need reinforcement round-trips).
CASES = {
    "flood": dict(
        scenario="flood", params={"columns": 8, "rows": 4},
        seed=11, duration=5.0,
    ),
    "mobility": dict(
        scenario="mobility", params={"columns": 8, "rows": 4},
        seed=11, duration=8.0,
    ),
    "diffusion": dict(
        scenario="diffusion",
        params={"columns": 6, "rows": 4, "duration": 12.0},
        seed=11, duration=12.0,
    ),
}


@functools.lru_cache(maxsize=None)
def oracle_outcome(case: str):
    spec = CASES[case]
    plan = ShardPlan(shards=1, **spec)
    outcome = run_oracle(plan)
    # The oracle itself must do real work or equality is vacuous.
    sent = outcome.get("sent", outcome.get("channel", {}).get("sent", 0))
    assert sent > 0
    return outcome


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sharded_outcome_matches_oracle(case, shards):
    plan = ShardPlan(shards=shards, **CASES[case])
    result = run_sharded(plan, transport="inline")
    assert result["outcome"] == oracle_outcome(case)
    if shards > 1:
        # Equality is only evidence if ghosts actually crossed the cut.
        assert sum(s["ghosts_admitted"] for s in result["shards"]) > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_multi_shard_runs_exercise_the_cut(case):
    """Equivalence is only evidence if ghosts actually crossed the cut."""
    plan = ShardPlan(shards=2, **CASES[case])
    result = run_sharded(plan, transport="inline")
    assert result["outcome"] == oracle_outcome(case)
    assert sum(s["exports"] for s in result["shards"]) > 0
    assert sum(s["ghosts_admitted"] for s in result["shards"]) > 0


def test_kmeans_partition_is_also_equivalent():
    """The protocol must not depend on the grid cut's shape."""
    spec = dict(CASES["flood"], partition="kmeans")
    plan = ShardPlan(shards=3, **spec)
    result = run_sharded(plan, transport="inline")
    assert result["outcome"] == oracle_outcome("flood")


def test_process_transport_matches_oracle():
    """One worker process per shard over real pipes, same outcome."""
    plan = ShardPlan(shards=2, **CASES["flood"])
    result = run_sharded(plan, transport="process")
    assert result["outcome"] == oracle_outcome("flood")
    assert sum(s["ghosts_admitted"] for s in result["shards"]) > 0


def test_single_shard_inline_matches_oracle_stats():
    """A 1-shard run is the oracle modulo the windowing machinery: no
    exports, no ghosts, same outcome."""
    plan = ShardPlan(shards=1, **CASES["flood"])
    result = run_sharded(plan, transport="inline")
    assert result["outcome"] == oracle_outcome("flood")
    (stats,) = result["shards"]
    assert stats["exports"] == 0
    assert stats["ghosts_admitted"] == 0


def test_shard_stats_and_metrics_are_reported():
    plan = ShardPlan(shards=2, **CASES["flood"])
    result = run_sharded(plan, transport="inline")
    assert len(result["shards"]) == 2
    assert len(result["metrics"]) == 2
    for stats in result["shards"]:
        assert stats["rounds"] > 0
        assert stats["events"] > 0
        assert stats["busy_seconds"] > 0.0
    for snapshot in result["metrics"]:
        counters = snapshot["counters"]
        assert any(k.startswith("shard.rounds") for k in counters)
        assert any(
            k.startswith("kernel.events_processed")
            for k in snapshot["gauges"]
        )
