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
        "3bd9c66627d4fb241defadaa26c2a2f18986d79ba373a380e1e9f1e3e7d4f03b",
    ),
    "dtn-clustered": (
        "dtn", {"mode": "clustered"}, 1, 1, 200.0,
        "f7def221eac895a7f4b9c6df5f192ba90b6fbd07f29e00b8bfc700ceef9a750a",
    ),
    "hierarchy-rendezvous": (
        "hierarchy",
        {"columns": 10, "rows": 10, "region": 5, "mode": "rendezvous"},
        1, 1, 30.0,
        "99dd538f2df30565765088de6ae1d10d9a885c26bea85358e78c50d852e4ed7d",
    ),
    "line-duty": (
        "line", {"duty_cycle": 0.5}, 1, 1, 60.0,
        "0537c67c706c14060cb4d210737843b8ee0c494be6d730b14eda91aa66c55e1a",
    ),
    "regional-2-shards": (
        "regional", {"columns": 12, "rows": 12}, 1, 2, 4.0,
        "b924e801a61b47de026d74833762159e3d249bc8fe186b657a239fb39ef8f8a8",
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
