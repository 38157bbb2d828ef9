"""Shard-count equivalence: the acceptance suite for ``repro.shard``.

The sharded kernel's contract is that shard count is an execution
detail, never a modelling choice: for any deterministic scenario the
merged K-shard outcome must be bit-identical to the single-queue
oracle's.  These tests sweep the three scenario families (flood,
mobility, diffusion) across 1/2/4 shards on the inline transport, plus
one process-transport case and one three-slab case, asserting dict
equality of the full outcome (including sorted delivery lists where the
scenario reports them); then seeds x shard counts under frequent moves,
where the contract is hardest to keep; and last that both transports
run the same rounds, so what the inline sweeps prove holds for the
process runs too.
"""

import functools

import pytest

from repro.shard import ShardPlan, get_scenario, run_oracle, run_sharded

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


def test_three_slab_cut_is_also_equivalent():
    """Three x-slabs: a middle shard with a seam on either side, a cut
    shape the 1/2/4 sweep does not have."""
    plan = ShardPlan(shards=3, **CASES["flood"])
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
        assert any(k.startswith("kernel.cancelled_events") for k in counters)
        assert set(snapshot) == {"counters", "histograms"}


# ---------------------------------------------------------------------------
# Frequent moves.  A move every 0.1-0.5 s makes windows end on a move
# all the time and puts fragments on the air across one; the seeds
# listed for B and C are ones where a shard once ran across its own move
# or missed the carrier of a fragment keyed up before one.

MOBILITY_PLANS = {
    "A": ({"columns": 10, "rows": 5,
           "move_start": 1.0, "move_interval": 0.5}, 6.0),
    # B and C: overlapping walkers.
    "B": ({"columns": 10, "rows": 5, "movers": 3, "move_steps": 16,
           "move_start": 0.5, "move_interval": 0.11}, 5.0),
    "C": ({"columns": 12, "rows": 6, "movers": 4, "move_steps": 8,
           "move_start": 0.8, "move_interval": 0.27}, 5.0),
}
MOBILITY_SWEEP = [("A", seed) for seed in range(1, 13)] + [
    ("B", 1), ("B", 12), ("B", 32), ("C", 8), ("C", 26), ("C", 28),
]


def mobility_plan(name: str, seed: int, shards: int) -> ShardPlan:
    params, duration = MOBILITY_PLANS[name]
    return ShardPlan("mobility", params, seed, duration, shards)


@functools.lru_cache(maxsize=None)
def mobility_oracle(name: str, seed: int):
    plan = mobility_plan(name, seed, 1)
    scenario = get_scenario(plan.scenario)
    moves = scenario.move_schedule(
        plan.params, scenario.topology(plan.params)
    )
    # Every move must happen inside the run or the sweep proves nothing.
    assert len(moves) >= 8
    assert max(t for t, _node, _x, _y in moves) < plan.duration
    return run_oracle(plan)


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name,seed", MOBILITY_SWEEP)
def test_sharded_outcome_matches_oracle_under_frequent_moves(
    name, seed, shards
):
    result = run_sharded(mobility_plan(name, seed, shards))
    assert result["outcome"] == mobility_oracle(name, seed)


# ---------------------------------------------------------------------------
# One round loop under both transports.

ROUND_COUNTERS = (
    "rounds", "events", "exports", "ghosts_admitted", "ghosts_skipped",
    "windows_by_term",
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_transports_run_identical_rounds(case):
    """Inline and process drive the same ``ShardRuntime.step``, so every
    per-shard protocol counter agrees, and so do the bytes exchanged
    (except diffusion's: its payloads carry message ids, which the two
    transports draw from different namespaces)."""
    plan = ShardPlan(shards=2, **CASES[case])
    inline = run_sharded(plan, transport="inline")
    process = run_sharded(plan, transport="process", timeout=120)
    counters = ROUND_COUNTERS
    if case != "diffusion":
        counters += ("exchange_bytes",)
    for ours, theirs in zip(inline["shards"], process["shards"]):
        assert {k: ours[k] for k in counters} == {
            k: theirs[k] for k in counters
        }
