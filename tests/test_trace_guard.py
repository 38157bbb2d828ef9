"""The silent bus stays silent: hot layers guard every ``trace.emit``.

``TraceBus.emit`` returns at once when nobody listens, but its arguments
(an f-string trace id, an enum name, a size walk) are built before the
call.  On the per-message and per-fragment paths of the core, radio, MAC
and link layers every ``emit`` therefore sits behind ``if <bus>.active``
— this test reads the sources and fails on one that does not.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import DiffusionNode, Message
from repro.core.messages import make_data
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.shard import ShardPlan, build_whole, run_oracle
from repro.sim import Simulator, metrics

SRC = Path(repro.__file__).parent
HOT_LAYERS = ("core", "radio", "mac", "link")

#: (file, function) -> why an unguarded emit is fine there
ALLOWED = {
    ("core/node.py", "reboot"): "once per power cycle, and no argument is computed",
}


def _is_emit(node: ast.AST) -> bool:
    """``trace.emit(...)`` / ``<anything>.trace.emit(...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    bus = node.func.value
    name = bus.attr if isinstance(bus, ast.Attribute) else getattr(bus, "id", None)
    return node.func.attr == "emit" and name == "trace"


def _reads_active(test: ast.AST) -> bool:
    return isinstance(test, ast.Attribute) and test.attr == "active"


def _returns_when_silent(stmt: ast.stmt) -> bool:
    """``if not <bus>.active: return``"""
    return (
        isinstance(stmt, ast.If)
        and isinstance(stmt.test, ast.UnaryOp)
        and isinstance(stmt.test.op, ast.Not)
        and _reads_active(stmt.test.operand)
        and isinstance(stmt.body[-1], ast.Return)
    )


def unguarded_emits(source: str):
    """``(function name, line)`` of every emit no listener guard covers."""
    found = []

    def walk(node: ast.AST, function: str, guarded: bool) -> None:
        if _is_emit(node) and not guarded:
            found.append((function, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, guarded = node.name, False
        if isinstance(node, ast.If) and _reads_active(node.test):
            walk(node.test, function, guarded)
            for child in node.body:
                walk(child, function, True)
            for child in node.orelse:
                walk(child, function, guarded)
            return
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list):
                covered = guarded
                for child in block:
                    walk(child, function, covered)
                    covered = covered or _returns_when_silent(child)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                walk(child, function, guarded)

    walk(ast.parse(source), "<module>", False)
    return found


def test_hot_layers_guard_every_emit():
    offenders, allowed_seen, sites = [], set(), 0
    for layer in HOT_LAYERS:
        for path in sorted((SRC / layer).glob("*.py")):
            source = path.read_text()
            sites += source.count(".emit(")
            name = f"{layer}/{path.name}"
            for function, line in unguarded_emits(source):
                if (name, function) in ALLOWED:
                    allowed_seen.add((name, function))
                else:
                    offenders.append(f"{name}:{line} in {function}()")
    assert sites >= 13, "the scan no longer finds the emit sites"
    assert not offenders, (
        "trace.emit outside an `if <bus>.active` guard (its arguments are "
        f"built even on a silent bus): {offenders}"
    )
    assert allowed_seen == set(ALLOWED), "stale allow-list entry"


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(self):\n    self.trace.emit(1, 'x')\n", [("f", 2)]),
        ("def f(trace):\n    if trace.active:\n        trace.emit(1, 'x')\n", []),
        (
            "def f(self):\n    if not self.trace.active:\n        return\n"
            "    self.trace.emit(1, 'x')\n",
            [],
        ),
        (
            "def f(self):\n    if self.trace.active:\n        pass\n"
            "    else:\n        self.trace.emit(1, 'x')\n",
            [("f", 5)],
        ),
        (
            "def f(self):\n    if self.trace.active:\n        def g():\n"
            "            self.trace.emit(1, 'x')\n",
            [("g", 4)],
        ),
        (
            "def f(self, x):\n    if x:\n        if not self.trace.active:\n"
            "            return\n    self.node.trace.emit(1, 'x')\n",
            [("f", 5)],
        ),
    ],
)
def test_the_scan_tells_guarded_from_unguarded(source, expected):
    assert unguarded_emits(source) == expected


#: readers of ``trace_id`` that do not format a trace argument: the core
#: stores the trigger's id on the reinforcement it creates
#: (``parent_trace``, message state that ghost exports pickle)
CAUSE_SITES = {
    "_process_push_data",
    "_note_duplicate_exploratory",
    "_process_exploratory",
    "_process_reinforcement",
}


def _trapped_trace_id():
    real = Message.trace_id.fget

    def trace_id(message):
        if sys._getframe(1).f_code.co_name in CAUSE_SITES:
            return real(message)
        raise AssertionError("an untraced run formatted a trace id")

    return property(trace_id)


def test_untraced_run_evaluates_no_trace_argument(monkeypatch):
    """A 3-node line with ``Message.trace_id`` booby-trapped completes."""
    plan = ShardPlan.named("line", {"nodes": 3}, seed=1, duration=20.0)
    expected = run_oracle(plan)
    assert expected["app_delivered"] > 0

    monkeypatch.setattr(Message, "trace_id", _trapped_trace_id())
    assert run_oracle(plan) == expected

    # ...and the trap is live: a node with a listener does format it.
    node = DiffusionNode(Simulator(), 1, None)
    node.trace.subscribe("*", lambda record: None)
    attrs = AttributeVector.builder().actual(Key.TYPE, "x").build()
    with pytest.raises(AssertionError, match="formatted a trace id"):
        node._transmit(make_data(attrs, origin=1, exploratory=True))


#: what an unmetered run may call in ``repro/sim/metrics.py``: the shared
#: no-op a histogram resolves to under the null registry (a counter costs
#: nothing at all: the registry reads it back).
NULL_CALLS = {"_NullInstrument.observe"}


def test_unmetered_run_calls_no_metrics_code():
    """A 3-node line built under the null registry runs no metrics code
    beyond the allow-listed no-ops."""
    net = build_whole(ShardPlan.named("line", {"nodes": 3}, seed=1))
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == metrics.__file__:
            called.add(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        net.sim.run(until=20.0)
    finally:
        sys.setprofile(None)
    assert "_NullInstrument.observe" in called, "the profile saw nothing"
    assert called <= NULL_CALLS, sorted(called - NULL_CALLS)


#: sha256 of the JSONL a traced run writes, less its one host-time record
#: (``kernel.profile``); read at the commit before the guards went in, so
#: a traced run still emits byte for byte what it did.  Re-pinned once
#: since, when a fragment's end of airtime joined its reception event
#: and reassembly timeouts moved to one FIFO: only the final
#: ``metrics.snapshot`` moved (``kernel.cancelled_events`` and the
#: ``kernel.events_processed`` gauge).  Re-pinned again when the
#: registry's time series went: that record lost its empty
#: ``"timeseries": {}`` and nothing else moved.  Re-pinned a third time
#: when the channel-loss draw became one order-free hash, which moves
#: every simulated outcome.  Re-pinned a fourth time when the registry's
#: gauges went: the final ``metrics.snapshot`` lost its ``"gauges"`` key
#: (the kernel's processed / pending counts) and nothing else moved.  A
#: fresh process each: trace ids carry the process-wide message counter.
TRACED_RUNS = {
    ("line", "-p", "nodes=3", "--duration", "20", "--seed", "1"):
        "888890c4f8dfd851462152707a586e915ebcbb1d0f90573d62b93ecbf7521711",
    ("fig8", "--duration", "60", "--seed", "1"):
        "ab0fac0ff3f1e1ec10c4bb3d22676787230d787f00efc86c749b02ce0b1e8d0b",
}


@pytest.mark.parametrize("run", sorted(TRACED_RUNS), ids=lambda run: run[0])
def test_traced_run_writes_the_same_records(run, tmp_path):
    out = tmp_path / "trace.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run(
        [sys.executable, "-m", "repro", "run", *run, "--trace", str(out)],
        env=env, check=True, capture_output=True,
    )
    lines = [
        line for line in out.read_bytes().splitlines(keepends=True)
        if b'"cat": "kernel.profile"' not in line
    ]
    assert len(lines) > 100
    assert hashlib.sha256(b"".join(lines)).hexdigest() == TRACED_RUNS[run]
