"""What a single-queue run imports: the process transport stays out.

Every module a run imports is in the memory its forked rounds inherit,
so the floor of a run's peak RSS is its import set.  The layers a
one-queue or inline run never calls — the campaign layer, the analysis
layer, and the process transport with :mod:`multiprocessing` — must
not be loaded by importing what ``perf/workloads.py`` imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: the packages perf/workloads.py imports.
RUN_IMPORTS = ("repro.apps", "repro.dtn.scenario", "repro.shard", "repro.testbed")

#: modules only a campaign, a report or a process-shard run needs.
KEPT_OUT = (
    "repro.campaign",
    "repro.analysis",
    "repro.shard.process",
    "multiprocessing",
    "concurrent.futures",
)

PROBE = """
import importlib, json, sys
for name in sys.argv[1].split(","):
    importlib.import_module(name)
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_after(imports):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, ",".join(imports)],
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
