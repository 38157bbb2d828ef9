"""Every ``repro.*`` name API.md and DESIGN.md put in backticks imports,
and every ``python -m repro`` command README.md, EXPERIMENTS.md and
DESIGN.md give parses.

The documents are the reference a reader follows into the code, so a
name they give must exist: a module is imported, and the rest of the
dotted name is looked up as attributes.  A name left behind after its
code was removed or renamed fails here.  A command is run through the
real command tree with ``--help`` appended, so a subcommand or flag the
tree does not have fails without running anything.
"""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("API.md", "DESIGN.md")

FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def doc_names(text):
    """The dotted ``repro.*`` names inside inline code spans."""
    names = set()
    for span in SPAN.findall(FENCE.sub("", text)):
        names.update(NAME.findall(span))
    return names


def resolve(dotted):
    """Import the longest module prefix of ``dotted``, then look the
    rest up as attributes; raises if any part is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_repro_object_imports(doc):
    names = doc_names((ROOT / doc).read_text())
    assert names, f"{doc} names no repro.* object"
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (ImportError, AttributeError) as error:
            missing.append(f"{name}: {error}")
    assert not missing, missing


def test_a_removed_name_is_caught():
    names = doc_names(
        "the `repro.energy.EnergyLedger` and `repro.energy` and\n"
        "`repro.energy.radio_energy(sent,\nreceived)`\n"
        "```python\nimport repro.nowhere\n```\n"
    )
    assert names == {
        "repro.energy.EnergyLedger", "repro.energy", "repro.energy.radio_energy"
    }
    with pytest.raises(AttributeError):
        resolve("repro.energy.EnergyLedger")
    resolve("repro.energy.radio_energy")


COMMAND_DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")
#: a command in an inline code span (which may wrap a line), or on a
#: line of a fenced block, up to its comment.
COMMAND_SPAN = re.compile(r"`(?:PYTHONPATH=\S+ )?python -m repro\b([^`]*)`")
COMMAND_LINE = re.compile(r"^\$?\s*(?:PYTHONPATH=\S+ )?python -m repro\b(.*?)(?:\s+#.*)?$")


def doc_commands(text):
    """The argument lists of every ``python -m repro`` command in
    ``text``: ``[--quick]`` counts as ``--quick``, and ``a|b`` as ``a``."""
    text = text.replace("\\\n", " ")
    found = [span for span in COMMAND_SPAN.findall(FENCE.sub("", text))]
    for block in FENCE.findall(text):
        for line in block.splitlines():
            match = COMMAND_LINE.match(line)
            if match:
                found.append(match.group(1))
    return [
        [token.strip("[]").split("|")[0] for token in shlex.split(args)]
        for args in found
    ]


def help_exit_code(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            repro_main(argv + ["--help"])
    except SystemExit as exit:
        return exit.code
    return None


@pytest.mark.parametrize("doc", COMMAND_DOCS)
def test_every_documented_command_parses(doc):
    commands = doc_commands((ROOT / doc).read_text())
    assert commands, f"{doc} gives no python -m repro command"
    refused = [
        " ".join(argv) for argv in commands if help_exit_code(argv) != 0
    ]
    assert not refused, refused


def test_a_command_the_tree_lacks_is_caught():
    commands = doc_commands(
        "run `python -m repro campaign report\nresilience` or\n"
        "```console\n$ python -m repro run line \\\n    -p nodes=3  # a chain\n```\n"
        "and `python -m repro experiments [--quick] --only fig11|duty`"
    )
    assert commands == [
        ["campaign", "report", "resilience"],
        ["experiments", "--quick", "--only", "fig11"],
        ["run", "line", "-p", "nodes=3"],
    ]
    assert help_exit_code(commands[0]) == 2
    assert help_exit_code(commands[1]) == 0
