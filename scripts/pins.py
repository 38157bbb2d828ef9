#!/usr/bin/env python3
"""Behaviour pins: one sha256 per run outcome, held in tests/pins.json.

    python scripts/pins.py            # recompute the preset pins; exit 1 on any change
    python scripts/pins.py --ledger   # the same for the ledger pins
    python scripts/pins.py --write    # regenerate the whole file, print old -> new per key

Two sets of runs are pinned:

- ``presets``: every registry preset at its ``SMALL`` size from
  ``tests/test_scenario_registry.py``, run whole in one queue
  (``run_oracle``); ``tests/test_pins.py`` recomputes these in tier-1.
- ``ledger``: the ``outcome_digest`` of every ``BENCHMARK.json``
  workload at seeds 11 and 23, from ``perf/workloads.py`` (imported,
  never edited); ``scripts/ci_tier1.sh`` checks these, as they take a
  few seconds each.

A change that means to move an outcome re-pins with ``--write`` and
quotes the old -> new lines it prints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "pins.json"
LEDGER_SEEDS = (11, 23)

for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def digest(outcome: Any) -> str:
    """SHA-256 of the canonical JSON of an outcome."""
    canonical = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def preset_pin(name: str) -> str:
    from repro.shard import run_oracle
    from tests.test_scenario_registry import small_plan

    return digest(run_oracle(small_plan(name)))


def preset_pins() -> Dict[str, str]:
    from tests.test_scenario_registry import SMALL

    return {name: preset_pin(name) for name in sorted(SMALL)}


def ledger_pins() -> Dict[str, str]:
    sys.path.insert(0, str(ROOT / "perf"))
    from workloads import WORKLOADS, digest_of

    names = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return {
        f"{name}/{seed}": digest_of(WORKLOADS[name].run(seed)["outcome"])
        for name in names
        for seed in LEDGER_SEEDS
    }


def compare(stored: Dict[str, str], fresh: Dict[str, str]) -> int:
    """Print every key that moved; the number of them."""
    moved = 0
    for key in sorted(set(stored) | set(fresh)):
        old, new = stored.get(key, "absent"), fresh.get(key, "absent")
        if old != new:
            moved += 1
            print(f"{key}: {old[:16]} -> {new[:16]}")
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ledger", action="store_true",
                        help="check the ledger pins instead of the preset pins")
    parser.add_argument("--write", action="store_true",
                        help="regenerate every pin and print old -> new per key")
    args = parser.parse_args(argv)
    stored = json.loads(PINS.read_text()) if PINS.exists() else {}
    if args.write:
        fresh = {"presets": preset_pins(), "ledger": ledger_pins()}
        for section, pins in fresh.items():
            for key, new in pins.items():
                old = stored.get(section, {}).get(key, "absent")
                mark = "same" if old == new else "MOVED"
                print(f"{section}/{key}: {old[:16]} -> {new[:16]}  {mark}")
        PINS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        return 0
    section = "ledger" if args.ledger else "presets"
    fresh = ledger_pins() if args.ledger else preset_pins()
    moved = compare(stored.get(section, {}), fresh)
    print(f"{section}: {len(fresh) - moved} of {len(fresh)} pins equal")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
