"""Every knob in ``src/repro`` is set by a run, and every public name
there is reached by a run.

``scripts/knob_audit.py`` lists each defaulted parameter or config
field of any package under ``src/repro`` that no run sets, and each
public module-level function or class that no run refers to.  A run
is a file under ``src/`` or ``perf/``; ``tests/`` and
``examples/`` are not runs, so a value only a test sets counts as
unset.  Such a knob is one value in use: it becomes the constant it
always is, which a test can monkeypatch.  Such a name is code no run
executes: it gets a caller or goes.  What the script may still print
is the allowlist below, one reason per entry; a new finding fails
here.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "knob_audit.py"

#: findings that stay, and why.  The audit covers every package under
#: ``src/repro``, walked from the directory tree, not a list of them.
#: Only two kinds may stay: the parameters of the test oracles and
#: fixtures named here (and the ReferenceChannel seam), and a knob whose
#: removal would change the keys of a pinned outcome.
ALLOWED = {
    "repro.dtn.config:DtnConfig(energy_budget)": (
        "feeds custody_stats.refused_energy, a key of every pinned dtn "
        "and mule outcome"
    ),
    "repro.testbed.network:SensorNetwork(channel_cls)": (
        "the ReferenceChannel seam: the equivalence suite builds the same "
        "network over the reference scan"
    ),
    "repro.radio.dynamics:RandomWaypointMobility": (
        "the composition fuzzer's moves=waypoint (ROADMAP item 10(a)) and "
        "a fixture of the ReferenceChannel equivalence suite"
    ),
    "repro.radio.propagation:TablePropagation": (
        "the link-table model the channel and MAC unit tests use in "
        "place of geometry"
    ),
    "repro.radio.propagation:TablePropagation(links)": (
        "the link-table oracle's initial table"
    ),
    "repro.radio.propagation:TablePropagation.set_link(symmetric)": (
        "the link-table oracle's one-way links (asymmetric channel tests)"
    ),
    "repro.radio.propagation:TablePropagation.remove_link(symmetric)": (
        "the link-table oracle's one-way cuts"
    ),
    "repro.radio.propagation:FastPathPropagation": (
        "the protocol the channel's neighborhood-index contract is "
        "written against"
    ),
    "repro.testbed.calibration:validate_isi": (
        "checks the testbed geometry against the paper's text"
    ),
    "repro.testbed.calibration:validate_isi(seed)": (
        "the calibration oracle's propagation seed"
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
    "repro.testbed.network:ideal_line(config)": (
        "the chain fixture's diffusion timers"
    ),
    "repro.testbed.network:ideal_line(loss)": (
        "the chain fixture's link loss"
    ),
    "repro.testbed.network:ideal_line(seed)": (
        "the chain fixture's loss seed"
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
        "knobs no run sets or names no run calls (make each knob a "
        "constant, give each name a caller or delete it, or allowlist it "
        f"with a reason): {sorted(set(found) - set(ALLOWED))}; "
        f"allowlisted but no longer found: {sorted(set(ALLOWED) - set(found))}"
    )


def test_allowlist_is_short_and_reasoned():
    assert len(ALLOWED) <= 20
    assert all(reason.strip() for reason in ALLOWED.values())


def test_names_reached_only_from_tests_or_docstrings_are_found(tmp_path):
    """The audit over a small tree: a name only ``tests/`` calls, a
    name only an example calls and a name only a docstring mentions are
    printed; a name the perf harness calls is not."""
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


            def from_harness():
                return 4
        """,
        "tests/test_demo.py": """
            from repro.demo import only_tests


            def test_only_tests():
                assert only_tests() == 1
        """,
        "perf/demo.py": """
            from repro.demo import from_harness


            def run():
                return from_harness()
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
        "perf/sensor.py": """
            from repro.apps.sensor import Sensor


            def run():
                return Sensor(rate=2.0).size
        """,
    })
    assert _audit(tmp_path / "scripts" / "knob_audit.py") == [
        "repro.apps.sensor:Sensor(size)",
    ]


def test_knob_only_tests_set_is_found(tmp_path):
    """A test is not a run: a knob only ``tests/`` sets is printed, one
    the perf harness sets is not."""
    _write_tree(tmp_path, {
        "scripts/knob_audit.py": SCRIPT.read_text(),
        "src/repro/__init__.py": "",
        "src/repro/radio.py": """
            class Radio:
                def __init__(self, bitrate=13_000.0, payload=27):
                    self.bitrate = bitrate
                    self.payload = payload
        """,
        "tests/test_radio.py": """
            from repro.radio import Radio


            def test_radio():
                assert Radio(bitrate=9_600.0).payload == 27
        """,
        "perf/radio.py": """
            from repro.radio import Radio


            def run():
                return Radio(payload=27).bitrate
        """,
    })
    assert _audit(tmp_path / "scripts" / "knob_audit.py") == [
        "repro.radio:Radio(bitrate)",
    ]


def test_a_class_defined_in_a_function_reaches_its_base(tmp_path):
    """A subclass defined inside the function that builds it forwards
    its arguments to the base: what the run passes it sets the base's
    knobs, as a module-level subclass's call does."""
    _write_tree(tmp_path, {
        "scripts/knob_audit.py": SCRIPT.read_text(),
        "src/repro/__init__.py": "",
        "src/repro/receiver.py": """
            class Receiver:
                def __init__(self, timeout=4.0, rounds=6):
                    self.timeout = timeout
                    self.rounds = rounds
        """,
        "src/repro/run.py": """
            def arm():
                from repro.receiver import Receiver

                class _Timed(Receiver):
                    def __init__(self, *args, **kwargs):
                        super().__init__(*args, **kwargs)

                return _Timed(timeout=2.0)
        """,
        "perf/run.py": """
            from repro.run import arm


            def run():
                return arm().rounds
        """,
    })
    assert _audit(tmp_path / "scripts" / "knob_audit.py") == [
        "repro.receiver:Receiver(rounds)",
    ]
