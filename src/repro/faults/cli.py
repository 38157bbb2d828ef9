"""``python -m repro faults`` — validate, run, and report fault plans.

Subcommands::

    faults validate plan.json [--nodes 12]   check a plan file
    faults run [--fault crash] [--plan f]    run a resilience scenario
    faults report result.json                render a saved result

``faults run`` exits 0 iff every invariant held.  The pass/fail gates
(bit-identical replay, repair within a bounded number of exploratory
intervals) live in ``tests/test_faults_scenarios.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.analysis.resilience import format_resilience_report
from repro.faults.plan import FaultPlan, PlanError
from repro.faults.scenarios import builtin_names, resilience_run


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


def _cmd_run(args) -> int:
    plan: Optional[FaultPlan] = None
    if args.plan is not None:
        try:
            plan = _load_plan(args.plan)
        except (OSError, json.JSONDecodeError, PlanError) as exc:
            print(f"invalid plan: {exc}", file=sys.stderr)
            return 1
    result = resilience_run(
        fault=args.fault,
        seed=args.seed,
        exploratory_interval=args.exploratory_interval,
        duration=args.duration,
        plan=plan,
        flight_recorder=args.flight_recorder,
        monitor_max_entries=(
            0 if args.demo_violation else 32
        ),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.out}")
    print(format_resilience_report(result))
    info = result.get("flight_recorder")
    if info is not None:
        print(
            f"flight recorder: {info['records']} of {info['records_seen']} "
            f"events dumped to {info['path']}"
        )
    if args.demo_violation:
        # The point of the demo is the postmortem itself: succeed iff a
        # violation fired AND its causal lead-up was captured.
        captured = not result["invariants_ok"] and (
            args.flight_recorder is None
            or (info is not None and info["records"] > 0)
        )
        return 0 if captured else 1
    return 0 if result["invariants_ok"] else 1


def _cmd_report(args) -> int:
    try:
        with open(args.result, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read result: {exc}", file=sys.stderr)
        return 1
    print(format_resilience_report(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="deterministic fault injection and resilience verification",
    )
    sub = parser.add_subparsers(dest="command")

    val = sub.add_parser("validate", help="check a plan JSON file")
    val.add_argument("plan")
    val.add_argument(
        "--nodes", type=int, default=12,
        help="validate against node ids 0..N-1 (default: 12, the standard grid)",
    )

    run = sub.add_parser("run", help="run a resilience scenario")
    run.add_argument(
        "--fault", choices=builtin_names(), default="crash",
        help="builtin fault plan (ignored with --plan)",
    )
    run.add_argument("--plan", help="custom plan JSON file")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--duration", type=float, default=160.0)
    run.add_argument("--exploratory-interval", type=float, default=8.0)
    run.add_argument("--out", help="write the full result JSON here")
    run.add_argument(
        "--flight-recorder", metavar="PATH",
        help="ride a flight recorder on the trace bus and dump its rings "
        "to PATH (JSONL) on the first invariant violation, or at end of "
        "run if none fires",
    )
    run.add_argument(
        "--demo-violation", action="store_true",
        help="tighten the gradient-bound invariant to zero entries so a "
        "violation fires immediately; exit 0 iff the violation was "
        "captured (with --flight-recorder: and its lead-up dumped)",
    )

    rep = sub.add_parser("report", help="render a saved result JSON")
    rep.add_argument("result")

    args = parser.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
