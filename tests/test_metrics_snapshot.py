"""Pins on the registry's counters where the trace hashes do not reach.

``tests/test_trace_guard.py`` pins the whole traced JSONL of two runs,
final ``metrics.snapshot`` included; these pins cover the counter
families only a fault, custody, hierarchy, duty-cycled or sharded run
registers.  Each entry is the sha256 of the ``counters`` section of the
registry snapshot taken after the run, as canonical JSON.  A change
that moves a count on purpose re-pins the entry (old → new in
CHANGES.md); ``scripts/snapshot_diff.sh`` says which counter moved.
"""

import hashlib
import json

import pytest

from repro.shard import ShardPlan, run_oracle, run_sharded
from repro.sim import use_registry

#: name -> (scenario, params, seed, shards, duration, counters sha256)
PINNED = {
    "resilience-crash": (
        "resilience", {"fault": "crash"}, 1, 1, 120.0,
        "6a1abf22fdea2a33d870781f44229dc52f13b3ebf1187d02cc5d95b987e3ab12",
    ),
    "dtn-clustered": (
        "dtn", {"mode": "clustered"}, 1, 1, 200.0,
        "c524af85dfa457d0dc930fa0ce1cb1da60aaaf263d6b83ea9f6197ceff51f552",
    ),
    "hierarchy-rendezvous": (
        "hierarchy",
        {"columns": 10, "rows": 10, "region": 5, "mode": "rendezvous"},
        1, 1, 30.0,
        "b8039394dd0f754e8285e59142a3d30b45516f12bd3ffc506dfcf2110614464f",
    ),
    "line-duty": (
        "line", {"duty_cycle": 0.5}, 1, 1, 60.0,
        "b53303881f18d9948a623df7741caadf2dc4460a2f1b533c91a7d96e4de92522",
    ),
    "regional-2-shards": (
        "regional", {"columns": 12, "rows": 12}, 1, 2, 4.0,
        "de5be81f8a902c4651260fe25851f02398c093df75b89a6483feef3feca6e901",
    ),
}


def counters_digest(scenario, params, seed, shards, duration):
    """sha256 of the counters a run under a fresh registry reports (a
    sharded run's are the merged per-shard snapshots, inline)."""
    plan = ShardPlan.named(scenario, params, seed, shards, duration)
    with use_registry() as registry:
        if shards > 1:
            run_sharded(plan)
        else:
            run_oracle(plan)
    counters = registry.snapshot()["counters"]
    return hashlib.sha256(
        json.dumps(counters, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_counters_are_pinned(name):
    *plan, expected = PINNED[name]
    assert counters_digest(*plan) == expected
