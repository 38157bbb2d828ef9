"""Smoke tests: every example runs to completion and prints sane output.

Examples are part of the public surface (deliverable b); these tests
keep them from rotting.  Each runs in-process via runpy with stdout
captured.  An example narrates a run of the scenario registry rather
than building its own network, so what it shows is what ``repro run``
runs.
"""

import ast
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

EXPECTATIONS = {
    "quickstart.py": ["after interest propagation", "events delivered at sink"],
    "animal_tracking.py": ["geographic scoping respected: True", "with GEAR"],
    "surveillance_aggregation.py": ["traffic saved by in-network aggregation"],
    "nested_queries.py": ["nested (2-level)", "flat (1-level)"],
    "bulk_transfer.py": ["object complete: True", "repair rounds"],
    "target_tracking.py": ["mean tracking error", "merged in-network"],
}

#: what builds a network by hand, beside the registry.
HAND_BUILDERS = {"SensorNetwork", "isi_testbed_network", "IdealNetwork",
                 "Simulator"}
#: hand-built until GEAR's scope is a preset param.
HAND_BUILT = {"animal_tracking.py"}


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(EXPECTATIONS))
def test_example_runs(name):
    output = run_example(name)
    for marker in EXPECTATIONS[name]:
        assert marker in output, f"{name}: missing {marker!r} in output"


def test_all_examples_covered():
    """Every example script on disk has a smoke test."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXPECTATIONS)


@pytest.mark.parametrize("name", sorted(set(EXPECTATIONS) - HAND_BUILT))
def test_example_builds_through_the_registry(name):
    """No example but the hand-built one constructs a network itself."""
    tree = ast.parse((EXAMPLES_DIR / name).read_text())
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert not called & HAND_BUILDERS, sorted(called & HAND_BUILDERS)
