"""``python -m repro dtn`` — run and report disruption-tolerant transfers.

Subcommands::

    dtn run [--duty 0.6] [--no-custody] [--mule]    run a scenario
    dtn report result.json                           render a saved result

``dtn run`` exits 0 iff invariants held and no loss went unattributed,
so it doubles as a scriptable check.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.dtn import format_dtn_report
from repro.dtn.scenario import dtn_run, mule_run


def _duty(text: str) -> float:
    duty = float(text)
    if not 0.0 <= duty <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return duty


def _cmd_run(args) -> int:
    if args.mule:
        result = mule_run(seed=args.seed, custody=not args.no_custody)
    else:
        result = dtn_run(
            seed=args.seed,
            duty=args.duty,
            duration=args.duration,
            custody=not args.no_custody,
            mode=args.mode,
            flight_recorder=args.flight_recorder,
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.out}")
    print(format_dtn_report(result))
    info = result.get("flight_recorder")
    if info is not None:
        print(f"flight recorder: {info['records']} events in {info['path']}")
    return 0 if result["invariants_ok"] and not result["unattributed"] else 1


def _cmd_report(args) -> int:
    try:
        with open(args.result, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read result: {exc}", file=sys.stderr)
        return 1
    print(format_dtn_report(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro dtn",
        description="disruption-tolerant bulk transfer: custody, "
        "retransmission, and partition-resilient delivery",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run a disruption scenario")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--duty", type=_duty, default=0.6,
        help="fraction of each period the grid spends partitioned",
    )
    run.add_argument("--duration", type=float, default=260.0)
    run.add_argument(
        "--mode", choices=("flat", "clustered"), default="flat",
        help="interest propagation mode for the grid scenario",
    )
    run.add_argument(
        "--no-custody", action="store_true",
        help="legacy stack: no custody agents, no retransmission",
    )
    run.add_argument(
        "--mule", action="store_true",
        help="the 3-node data-mule line instead of the grid",
    )
    run.add_argument("--out", help="write the full result JSON here")
    run.add_argument(
        "--flight-recorder", metavar="PATH",
        help="dump the trace rings to PATH (JSONL) on the first "
        "invariant violation, or at end of run",
    )

    rep = sub.add_parser("report", help="render a saved result JSON")
    rep.add_argument("result")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
