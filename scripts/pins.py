#!/usr/bin/env python3
"""Behaviour pins: one sha256 per run outcome, held in tests/pins.json.

    python scripts/pins.py            # recompute the preset pins; exit 1 on any change
    python scripts/pins.py --ledger   # the same for the ledger pins
    python scripts/pins.py --wide     # the same for the wide pins
    python scripts/pins.py --wide --reverse-ties   # same-instant ties last in, first out
    python scripts/pins.py --write    # regenerate the whole file, print old -> new per key

Three sets of runs are pinned:

- ``presets``: every registry preset at its ``SMALL`` size from
  ``tests/test_scenario_registry.py``, run whole in one queue
  (``run_oracle``); ``tests/test_pins.py`` recomputes these in tier-1.
- ``ledger``: the ``outcome_digest`` of every ``BENCHMARK.json``
  workload at seeds 11 and 23, from ``perf/workloads.py`` (imported,
  never edited); ``scripts/ci_tier1.sh`` checks these, as they take a
  few seconds each.
- ``wide``: 30 runs the ``SMALL`` sizes do not reach — every builtin
  fault plan at 120 s and the brownout on a duty-cycled MAC, the
  ``dtn`` / ``mule`` custody arms, the 16x16 ``regional`` and the
  10x10 ``hierarchy`` modes, and the two runs that price radio time: a
  duty-cycled ``line`` (its outcome's ``energy`` section) and a
  custody ``dtn`` run whose energy budget refuses blocks (~10 s, a
  ``scripts/ci_tier1.sh`` step).

The preset and wide runs are also held to the rule that lets the
kernel pause the cyclic collector inside its run loop: event code makes
no reference cycles.  A run that leaves cyclic garbage fails its key
like a moved pin does, and its line names the garbage's top types.

``--reverse-ties`` runs any of the three sets with the kernel's ties
reversed: events due at the same time and priority run last in, first
out, so a pin that still holds does not depend on the order its events
were scheduled in (``tests/test_pins.py`` does the same for the
presets).  Sharded ledger runs see the reversal only in worker
processes that fork from this one, the default start method on Linux
before Python 3.14.

A change that means to move an outcome re-pins with ``--write`` and
quotes the old -> new lines it prints.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

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


@contextlib.contextmanager
def reversed_ties():
    """Every ``Simulator`` made inside counts its tie-breaking sequence
    down instead of up: same-(time, priority) events run last in, first
    out."""
    from repro.sim.kernel import Simulator

    init = Simulator.__init__

    def reversed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._seq = itertools.count(0, -1)

    Simulator.__init__ = reversed_init
    try:
        yield
    finally:
        Simulator.__init__ = init


def oracle_pin(plan: Any) -> Tuple[str, Counter]:
    """``run_oracle(plan)``'s digest, and the cyclic garbage its run made
    by type name: the run goes under ``gc.DEBUG_SAVEALL`` between two
    full collections, so every cycle it left lands in ``gc.garbage``."""
    from repro.shard import build_whole

    net = build_whole(plan)
    gc.collect()
    flags, start = gc.get_debug(), len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        net.sim.run(until=plan.duration)
        gc.collect()
    finally:
        gc.set_debug(flags)
    garbage = Counter(type(obj).__name__ for obj in gc.garbage[start:])
    del gc.garbage[start:]
    return digest(net.outcome()), garbage


def top_types(garbage: Counter) -> str:
    """The five commonest garbage types with their counts."""
    return ", ".join(f"{kind} x{count}" for kind, count in garbage.most_common(5))


def preset_pin(name: str) -> Tuple[str, Counter]:
    from tests.test_scenario_registry import small_plan

    return oracle_pin(small_plan(name))


def preset_pins() -> Dict[str, Tuple[str, Counter]]:
    from tests.test_scenario_registry import SMALL

    return {name: preset_pin(name) for name in sorted(SMALL)}


def ledger_pins() -> Dict[str, Tuple[str, Optional[Counter]]]:
    """The ledger runs are perf/workloads.py's own: no garbage count."""
    sys.path.insert(0, str(ROOT / "perf"))
    from workloads import WORKLOADS, digest_of

    names = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return {
        f"{name}/{seed}": (
            digest_of(WORKLOADS[name].run(seed)["outcome"]), None)
        for name in names
        for seed in LEDGER_SEEDS
    }


def wide_plans() -> Dict[str, Any]:
    """The wide set's runs, one plan per key."""
    from repro.faults import builtin_names
    from repro.shard import ShardPlan

    plans = {}
    for fault in builtin_names():
        for seed in (1, 7):
            plans[f"resilience/{fault}/{seed}"] = ShardPlan(
                "resilience", {"fault": fault}, seed, 120.0, 1)
    # The brownout on a duty-cycled MAC: the two sleep schedules compose.
    plans["resilience/brownout-duty/1"] = ShardPlan(
        "resilience", {"fault": "brownout", "duty_cycle": 0.5}, 1, 120.0, 1)
    plans["resilience/fast"] = ShardPlan(
        "resilience", {"fault": "crash", "exploratory_interval": 5.0,
                       "send_interval": 0.5}, 1, 120.0, 1)
    plans["timesync"] = ShardPlan.named("timesync", {}, 3)
    for custody in (False, True):
        for duty in (0.0, 0.6):
            plans[f"dtn/{custody}/{duty}"] = ShardPlan(
                "dtn", {"duty": duty, "custody": custody}, 2, 200.0, 1)
        plans[f"mule/{custody}"] = ShardPlan.named(
            "mule", {"custody": custody}, 1)
        plans[f"dtn-clustered/{custody}"] = ShardPlan.named(
            "dtn", {"custody": custody, "mode": "clustered"}, 1)
    plans["energy/line"] = ShardPlan.named("line", {"duty_cycle": 0.5}, 1)
    # A budget the custodians cross mid-run: 10 blocks refused by energy.
    plans["energy/dtn-budget"] = ShardPlan(
        "dtn", {"duty": 0.0, "custody": True,
                "dtn_config": {"energy_budget": 150.0}}, 2, 200.0, 1)
    plans["oracle/diffusion"] = ShardPlan(
        "diffusion", {"columns": 6, "rows": 4, "duration": 12.0}, 11, 12.0, 1)
    plans["oracle/regional"] = ShardPlan(
        "regional", {"columns": 16, "rows": 16, "region": 8,
                     "duration": 4.5}, 11, 4.5, 1)
    for mode in ("flat", "clustered", "rendezvous"):
        plans[f"oracle/hierarchy/{mode}"] = ShardPlan(
            "hierarchy", {"columns": 10, "rows": 10, "region": 5,
                          "duration": 10.0, "mode": mode}, 11, 10.0, 1)
    return plans


def wide_pins() -> Dict[str, Tuple[str, Counter]]:
    return {key: oracle_pin(plan) for key, plan in wide_plans().items()}


SECTIONS = {"presets": preset_pins, "ledger": ledger_pins, "wide": wide_pins}


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
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--ledger", action="store_const", dest="section",
                       const="ledger", default="presets",
                       help="check the ledger pins instead of the preset pins")
    which.add_argument("--wide", action="store_const", dest="section",
                       const="wide",
                       help="check the wide pins instead of the preset pins")
    parser.add_argument("--write", action="store_true",
                        help="regenerate every pin and print old -> new per key")
    parser.add_argument("--reverse-ties", action="store_true",
                        help="run same-instant, same-priority events last in, "
                             "first out")
    args = parser.parse_args(argv)
    if args.write and args.reverse_ties:
        parser.error("--write pins the first-in, first-out order only")
    stored = json.loads(PINS.read_text()) if PINS.exists() else {}
    if args.write:
        fresh = {section: {key: pin for key, (pin, _) in pins().items()}
                 for section, pins in SECTIONS.items()}
        for section, pins in fresh.items():
            for key, new in pins.items():
                old = stored.get(section, {}).get(key, "absent")
                mark = "same" if old == new else "MOVED"
                print(f"{section}/{key}: {old[:16]} -> {new[:16]}  {mark}")
        PINS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        return 0
    section = args.section
    order = reversed_ties() if args.reverse_ties else contextlib.nullcontext()
    with order:
        runs = SECTIONS[section]()
    moved = compare(stored.get(section, {}),
                    {key: pin for key, (pin, _) in runs.items()})
    littered = 0
    for key, (_, garbage) in sorted(runs.items()):
        if garbage:
            littered += 1
            print(f"{key}: its run left cyclic garbage: {top_types(garbage)}")
    summary = f"{section}: {len(runs) - moved} of {len(runs)} pins equal"
    if args.reverse_ties:
        summary += " with ties reversed"
    if section != "ledger":
        summary += f", {littered} runs left cyclic garbage"
    print(summary)
    return 1 if moved or littered else 0


if __name__ == "__main__":
    sys.exit(main())
