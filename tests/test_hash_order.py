"""No outcome may follow ``PYTHONHASHSEED``: a set or dict iterated on
the way to a result names causes, heads or drops that depend on the
interpreter (ROADMAP item 5, step one).  One process runs one hash
seed, so tier-1 cannot see it from inside: one small armed run per
subsystem is dumped as sorted JSON in subprocesses under two hash seeds
and the dumps must be byte-equal."""

import json
import os
import subprocess
import sys

import pytest

DUMP = """
import json, sys
from repro.shard import ShardPlan, run_oracle
name, params, seed, seconds = json.loads(sys.argv[1])
outcome = run_oracle(ShardPlan(name, params, seed, seconds, 1))
print(json.dumps(outcome, sort_keys=True))
"""

#: id -> (scenario, params, seed, seconds)
ARMED = {
    "dtn-custody-off": ("dtn", {"custody": False}, 3, 160.0),
    "dtn-custody-on": ("dtn", {"custody": True}, 3, 160.0),
    "resilience-crash": ("resilience", {"fault": "crash"}, 7, 120.0),
    "hierarchy-clustered": (
        "hierarchy",
        {"columns": 8, "rows": 8, "region": 4, "mode": "clustered"},
        5, 20.0,
    ),
    "fig8": ("fig8", {"sources": 4, "monitors": True}, 101, 120.0),
}


def dump(plan, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, "-c", DUMP, json.dumps(plan)], env=env, check=True,
        capture_output=True, text=True,
    )
    return done.stdout


@pytest.mark.parametrize("name", sorted(ARMED))
def test_outcome_is_equal_under_two_hash_seeds(name):
    first, second = (dump(ARMED[name], hash_seed) for hash_seed in (0, 1))
    assert len(first) > 100
    assert first == second
