"""Every knob in ``src/repro`` has a caller, and every public name
there is reached by a run.

``scripts/knob_audit.py`` lists each defaulted parameter or config
field of any package under ``src/repro`` that no run, test, benchmark
or ``perf/`` workload sets, and each public module-level function or
class that nothing outside ``tests/`` and ``examples/`` refers to.
Such a knob is one more configuration to account for with no one
asking for it: it becomes the constant it always is.  Such a name is
code no run executes: it gets a caller or goes.  What the script may
still print is the allowlist below, one reason per entry; a new
finding fails here.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "knob_audit.py"

#: findings that stay, and why.  The audit covers every package under
#: ``src/repro``, walked from the directory tree, not a list of them.
ALLOWED = {
    "repro.link.frag:Fragment(link_src)": (
        "a field of the fragment record the process transport pickles; "
        "dropping it shrinks shard.exchange_bytes, which "
        "tests/test_metrics_snapshot.py pins"
    ),
    "repro.radio.dynamics:RandomWaypointMobility": (
        "the composition fuzzer's moves=waypoint (ROADMAP item 10(a)) and "
        "a fixture of the ReferenceChannel equivalence suite"
    ),
    "repro.radio.propagation:TablePropagation": (
        "the link-table model the channel and MAC unit tests use in "
        "place of geometry"
    ),
    "repro.radio.propagation:FastPathPropagation": (
        "the protocol the channel's neighborhood-index contract is "
        "written against"
    ),
    "repro.testbed.calibration:validate_isi": (
        "checks the testbed geometry against the paper's text"
    ),
    "repro.naming.wire:encode_attributes": (
        "the byte-exact attribute format encoded_size is tested against"
    ),
    "repro.naming.wire:decode_attributes": (
        "the inverse of encode_attributes; hostile-input tests fuzz it"
    ),
    "repro.testbed.network:ideal_line": (
        "the IdealNetwork chain fixture four test modules build on"
    ),
    "repro.analysis.tracelog:summarize_campaign": (
        "the reader through which tests check campaign run --log"
    ),
}


def _write_tree(root: Path, files: dict) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def _audit(script: Path) -> list:
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        check=True, timeout=60,
    )
    return result.stdout.splitlines()


def test_every_knob_has_a_caller():
    found = _audit(SCRIPT)
    assert found == sorted(ALLOWED), (
        "knobs nothing sets or names no run calls (make each knob a "
        "constant, give each name a caller or delete it, or allowlist it "
        f"with a reason): {sorted(set(found) - set(ALLOWED))}; "
        f"allowlisted but no longer found: {sorted(set(ALLOWED) - set(found))}"
    )


def test_names_reached_only_from_tests_or_docstrings_are_found(tmp_path):
    """The audit over a small tree: a name only ``tests/`` calls, a
    name only an example calls and a name only a docstring mentions are
    printed; a name a benchmark calls is not."""
    files = {
        "scripts/knob_audit.py": SCRIPT.read_text(),
        "src/repro/__init__.py": "",
        "src/repro/demo.py": """
            def only_tests():
                return 1


            def from_example():
                return 2


            def in_docstring():
                return 3


            def from_benchmark():
                return 4
        """,
        "tests/test_demo.py": """
            from repro.demo import only_tests


            def test_only_tests():
                assert only_tests() == 1
        """,
        "benchmarks/test_demo.py": """
            from repro.demo import from_benchmark


            def test_from_benchmark(benchmark):
                assert benchmark(from_benchmark) == 4
        """,
        "examples/demo.py": """
            # only_tests() is named in a comment and imported, never called.
            from repro.demo import from_example, only_tests


            def main():
                "repro.demo:in_docstring"
                return from_example()
        """,
    }
    _write_tree(tmp_path, files)
    assert _audit(tmp_path / "scripts" / "knob_audit.py") == [
        "repro.demo:from_example",
        "repro.demo:in_docstring",
        "repro.demo:only_tests",
    ]


def test_knobs_in_every_package_are_audited(tmp_path):
    """An unset knob in an application package is printed as one in a
    stack package is: the scope is every package the tree holds."""
    _write_tree(tmp_path, {
        "scripts/knob_audit.py": SCRIPT.read_text(),
        "src/repro/__init__.py": "",
        "src/repro/apps/__init__.py": "",
        "src/repro/apps/sensor.py": """
            class Sensor:
                def __init__(self, rate=6.0, size=112):
                    self.rate = rate
                    self.size = size
        """,
        "benchmarks/test_sensor.py": """
            from repro.apps.sensor import Sensor


            def test_sensor():
                assert Sensor(rate=2.0).size == 112
        """,
    })
    assert _audit(tmp_path / "scripts" / "knob_audit.py") == [
        "repro.apps.sensor:Sensor(size)",
    ]
