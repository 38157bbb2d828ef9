"""Every ``repro.*`` name API.md and DESIGN.md put in backticks imports.

The two documents are the reference a reader follows into the code, so
a name they give must exist: a module is imported, and the rest of the
dotted name is looked up as attributes.  A name left behind after its
code was removed or renamed fails here.
"""

import importlib
import re
from pathlib import Path

import pytest

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
