"""Behaviour pins: every preset at its ``SMALL`` size
(``tests/test_scenario_registry.py``) hashes to the sha256 that
``tests/pins.json`` holds.  Tier-1 runs under a random string-hash
seed, so this also catches an outcome that starts to depend on it.
The same run is held to the rule that lets the kernel pause the cyclic
collector inside its loop: it leaves no cyclic garbage.  Each preset is
run once more with the kernel's ties reversed (events due at the same
time and priority last in, first out) and must hash to the same pin:
no outcome may depend on the order its same-instant events were
scheduled in.

A change that means to move an outcome re-pins with ``python
scripts/pins.py --write`` and quotes the old -> new lines it prints.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.shard import scenario_names

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pins", ROOT / "scripts" / "pins.py")
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)

STORED = json.loads(pins.PINS.read_text())


def test_every_preset_is_pinned():
    assert sorted(STORED["presets"]) == scenario_names()


@pytest.mark.parametrize("name", scenario_names())
def test_preset_outcome_matches_its_pin(name):
    pin, garbage = pins.preset_pin(name)
    assert pin == STORED["presets"][name]
    assert not garbage, (
        f"{name}: the run left cyclic garbage: {pins.top_types(garbage)}")


@pytest.mark.parametrize("name", scenario_names())
def test_preset_outcome_holds_with_ties_reversed(name):
    with pins.reversed_ties():
        pin, _ = pins.preset_pin(name)
    assert pin == STORED["presets"][name]
