"""What a single-queue run imports: only the layers it arms.

Every module a run imports is in the memory its forked rounds inherit,
so the floor of a run's peak RSS is its import set.  The layers a
one-queue run that arms no option never calls — the campaign layer, the
analysis layer, the process transport with :mod:`multiprocessing`, the
fault harness, the custody stack, the bulk-transfer scheme,
:mod:`pickle` and the applications of the other presets — must not be
loaded by importing what ``perf/workloads.py`` imports, nor by building
and running the ``fig8``, ``flood``, ``mobility`` and ``regional``
presets.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from tests.test_scenario_registry import SMALL

SRC = Path(__file__).resolve().parent.parent / "src"

#: the packages perf/workloads.py imports.
RUN_IMPORTS = ("repro.apps", "repro.dtn.scenario", "repro.shard", "repro.testbed")

#: the layers a run loads only when it arms them.
ARMED_ONLY = (
    "repro.faults",
    "repro.dtn.agent",
    "repro.dtn.custody",
    "repro.transfer",
    "pickle",
)

#: the applications only the presets that run them load: ``fig9``
#: (nested query), ``tracking`` (fusion) and ``timesync``.
PRESET_APPS = (
    "repro.apps.fusion",
    "repro.apps.nestedquery",
    "repro.apps.timesync",
)

#: modules only a campaign, a report, a process-shard run, an armed
#: option or another preset's application needs.
KEPT_OUT = (
    "repro.campaign",
    "repro.analysis",
    "repro.shard.process",
    "multiprocessing",
    "concurrent.futures",
) + ARMED_ONLY + PRESET_APPS

#: the presets the ledger's one-queue workloads build: none arms an option.
PLAIN_RUNS = ("fig8", "flood", "mobility", "regional")

PROBE = """
import importlib, json, sys
imports, runs, shards = json.loads(sys.argv[1])
for name in imports:
    importlib.import_module(name)
if runs:
    from repro.shard import ShardPlan, run_oracle, run_sharded
    for name, params, seconds in runs:
        plan = ShardPlan(name, params, 5, seconds, shards)
        if shards == 1:
            run_oracle(plan)
        else:
            run_sharded(plan, transport="inline")
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_after(imports, runs=(), shards=1):
    """The modules a fresh interpreter holds after importing ``imports``
    and running each preset of ``runs`` at its ``SMALL`` size (in one
    queue, or over ``shards`` inline shards)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    plans = [(name, *SMALL[name]) for name in runs]
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([list(imports), plans, shards])],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return set(json.loads(out))


def test_a_run_loads_no_campaign_analysis_or_process_transport():
    loaded = _loaded_after(RUN_IMPORTS)
    assert set(RUN_IMPORTS) <= loaded
    assert [name for name in KEPT_OUT if name in loaded] == []


def test_the_process_transport_brings_multiprocessing():
    """The probe sees an import when one happens: the process transport
    itself loads what the test above keeps out of a run."""
    loaded = _loaded_after(("repro.shard.process",))
    assert {"repro.shard.process", "multiprocessing"} <= loaded


def test_plain_runs_load_no_option_layer():
    """Building and running the presets is where a deferred import
    would come back: each of them arms nothing."""
    loaded = _loaded_after(RUN_IMPORTS, PLAIN_RUNS)
    assert [name for name in KEPT_OUT if name in loaded] == []


def test_armed_runs_load_their_layers():
    """The probe sees a deferred import when it happens: a resilience
    run loads the fault harness, a dtn run the custody stack and the
    transfer scheme, and the inline shard exchange :mod:`pickle`."""
    loaded = _loaded_after((), ("resilience", "dtn"))
    assert set(ARMED_ONLY) - {"pickle"} <= loaded
    assert "pickle" in _loaded_after((), ("flood",), shards=2)


def test_preset_runs_load_their_applications():
    """The probe sees a deferred application load when it happens: each
    comes back in the preset that runs it."""
    loaded = _loaded_after((), ("fig9", "tracking", "timesync"))
    assert set(PRESET_APPS) <= loaded
