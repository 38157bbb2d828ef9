"""``python -m repro faults`` — validate fault plans.

Subcommands::

    faults validate plan.json [--nodes 12]   check a plan file

A validated plan runs on any scenario with ``python -m repro run
<scenario> -p plan=@plan.json`` (:mod:`repro.shard.cli`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cliargs import positive_int
from repro.faults.plan import FaultPlan, PlanError


def _load_plan(path: str) -> FaultPlan:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return FaultPlan.from_json(data)


def _cmd_validate(args) -> int:
    try:
        plan = _load_plan(args.plan)
        plan.validate(range(args.nodes))
    except (OSError, json.JSONDecodeError, PlanError) as exc:
        print(f"invalid plan: {exc}", file=sys.stderr)
        return 1
    print(
        f"plan OK: {len(plan)} action(s), horizon {plan.horizon():g}s, "
        f"overlay {'required' if plan.needs_overlay() else 'not required'}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="deterministic fault injection: plan validation",
    )
    sub = parser.add_subparsers(dest="command")

    val = sub.add_parser("validate", help="check a plan JSON file")
    val.add_argument("plan")
    val.add_argument(
        "--nodes", type=positive_int, default=12,
        help="validate against node ids 0..N-1 (default: 12, the standard grid)",
    )

    args = parser.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
