"""Command-line entry point.

Usage::

    python -m repro experiments [--quick] [--only fig8] [--jobs 4]
    python -m repro campaign run fig9 --jobs 4
    python -m repro run --list
    python -m repro run fig8 -p sources=2 --trace run.jsonl
    python -m repro run resilience -p fault=partition --out part.json
    python -m repro run dtn -p duty=0.6 -p mode=clustered
    python -m repro run flood --shards 2
    python -m repro report part.json
    python -m repro trace paths run.jsonl
    python -m repro faults validate plan.json
    python -m repro example quickstart
    python -m repro info

Every single run — any scenario of the registry, any of its params,
single-queue or sharded, traced or not — is ``run``
(:mod:`repro.shard.cli`); ``trace`` analyses what ``run --trace`` wrote
(:mod:`repro.analysis.tracecli`); ``campaign`` sweeps runs
(:mod:`repro.campaign.cli`).  Every command's flags are declared here,
in one parser tree; a command's handler, and the stack behind it, is
imported only when that command runs.
"""

from __future__ import annotations

import argparse
import json
import pkgutil
import runpy
import sys
from pathlib import Path
from typing import Callable

import repro

EXAMPLES = {
    "quickstart": "quickstart.py",
    "animal-tracking": "animal_tracking.py",
    "surveillance": "surveillance_aggregation.py",
    "nested-queries": "nested_queries.py",
    "bulk-transfer": "bulk_transfer.py",
    "target-tracking": "target_tracking.py",
}

#: the commands that take a subcommand: with none, they print usage.
NESTED = ("campaign", "trace", "faults")


def _checked(kind: type, ok: Callable[[float], bool], rule: str):
    # A worker count, a per-trial timeout or a trial budget outside its
    # range is a usage error (exit 2), not a value to read some other
    # way: `--jobs 0` used to run serially and `--max-trials -1` to skip
    # the last trial.
    def parse(text: str):
        value = kind(text)  # a ValueError reads "invalid <kind> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


positive_int = _checked(int, lambda v: v > 0, "positive")
positive_float = _checked(float, lambda v: v > 0, "positive")
non_negative_int = _checked(int, lambda v: v >= 0, "at least 0")


def _examples_dir() -> Path:
    # examples/ sits next to src/ in a source checkout.
    return Path(__file__).resolve().parents[2] / "examples"


def _add_campaign(sub) -> None:
    camp = sub.add_parser(
        "campaign",
        help="run/status/clean parameter-sweep campaigns",
        description="Results land in a content-addressed store (--store, "
        "default $REPRO_CAMPAIGN_DIR or .repro-campaigns); re-running a "
        "campaign serves completed trials from cache, so `run` after an "
        "interruption resumes where it stopped.",
    )
    actions = camp.add_subparsers(dest="action")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("name", help="see `repro campaign list`")
        p.add_argument("--quick", action="store_true",
                       help="reduced durations/replicates")
        p.add_argument("--seed", type=int, default=None,
                       help="campaign root seed override")
        p.add_argument("--store", default=None,
                       help="result-store directory "
                            "(default: $REPRO_CAMPAIGN_DIR or .repro-campaigns)")

    run = actions.add_parser("run", help="run (or resume) a campaign")
    add_common(run)
    run.add_argument("--jobs", type=positive_int, default=1,
                     help="worker processes (1 = in-process serial)")
    run.add_argument("--timeout", type=positive_float, default=None,
                     help="per-trial wall-clock limit in seconds (jobs > 1)")
    run.add_argument("--retries", type=non_negative_int, default=1,
                     help="re-submissions after a crash or exception")
    run.add_argument("--force", action="store_true",
                     help="ignore cached results and re-run every trial")
    run.add_argument("--log", default=None,
                     help="write a JSONL campaign log to this path")
    run.add_argument("--max-trials", type=non_negative_int, default=None,
                     help="execute at most N trials this invocation")

    status = actions.add_parser("status", help="cached vs pending trial counts")
    add_common(status)

    clean = actions.add_parser("clean", help="drop a campaign's cached results")
    add_common(clean)
    clean.add_argument("--everything", action="store_true",
                       help="drop ALL entries in the store, not just this "
                            "campaign's current trial keys")

    actions.add_parser("list", help="list known campaigns")


def _add_trace(sub) -> None:
    trace = sub.add_parser(
        "trace",
        help="summarize/paths/timeline/profile over JSONL traces",
        description="analyse causal message traces",
    )
    actions = trace.add_subparsers(dest="action")

    summarize = actions.add_parser("summarize", help="run-level statistics")
    summarize.add_argument("trace")

    paths = actions.add_parser(
        "paths", help="per-message routes and loss attribution"
    )
    paths.add_argument("trace")
    paths.add_argument(
        "--all", action="store_true",
        help="show undelivered messages too, not just delivered ones",
    )
    paths.add_argument("--limit", type=positive_int, default=10)

    timeline = actions.add_parser(
        "timeline", help="every event touching one trace id"
    )
    timeline.add_argument("trace")
    timeline.add_argument("trace_id", help="e.g. 25.17 (origin.msg_id)")

    profile = actions.add_parser("profile", help="kernel event-loop profile")
    profile.add_argument("trace")
    profile.add_argument("--limit", type=positive_int, default=15)


def _add_faults(sub) -> None:
    flt = sub.add_parser(
        "faults", help="validate fault plans",
        description="deterministic fault injection: plan validation",
    )
    actions = flt.add_subparsers(dest="action")
    val = actions.add_parser("validate", help="check a plan JSON file")
    val.add_argument("plan")
    val.add_argument(
        "--nodes", type=positive_int, default=12,
        help="validate against node ids 0..N-1 (default: 12, the standard grid)",
    )


def _validate_plan(args) -> int:
    """``faults validate``: exit 1 on a plan that does not load or
    names nodes outside ``0..nodes-1``.  A valid plan runs on any
    scenario with ``repro run <scenario> -p plan=@plan.json``."""
    from repro.faults.plan import FaultPlan, PlanError

    try:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(json.load(handle))
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
        prog="repro",
        description="Reproduction of 'Building Efficient Wireless Sensor "
        "Networks with Low-Level Naming' (SOSP 2001)",
    )
    sub = parser.add_subparsers(dest="command")

    exp = sub.add_parser(
        "experiments",
        help="regenerate the paper's figures and check its claims",
    )
    exp.add_argument(
        "--quick", action="store_true",
        help="reduced trials and durations (~20x faster, noisier CIs); "
        "prints each claim beside its band without judging it",
    )
    exp.add_argument(
        "--only",
        action="append",
        choices=["fig8", "fig9", "fig11", "duty", "model", "micro", "ablations"],
        help="run a single section (repeatable)",
    )
    exp.add_argument(
        "--jobs", type=positive_int, default=1,
        help="worker processes for the campaign trials",
    )
    exp.add_argument(
        "--output", metavar="FILE",
        help="also write the report to this file (fenced for markdown)",
    )

    _add_campaign(sub)

    run = sub.add_parser("run", help="run one scenario of the registry")
    run.add_argument("scenario", nargs="?", help="see --list")
    run.add_argument(
        "-p", "--param", action="append", default=[], metavar="KEY=VALUE",
        help="a scenario param: JSON, text or @file.json",
    )
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--duration", type=float, help="default: the scenario's")
    run.add_argument("--shards", type=positive_int, default=1)
    run.add_argument(
        "--transport", choices=["inline", "process"], default="inline"
    )
    run.add_argument(
        "--trace", metavar="FILE",
        help="record the trace bus (with --shards: the sync profile) as JSONL",
    )
    run.add_argument("--out", metavar="FILE", help="save the outcome JSON")
    run.add_argument(
        "--list", action="store_true",
        help="print every scenario with its params and defaults",
    )
    report = sub.add_parser("report", help="render a saved run outcome")
    report.add_argument("result", metavar="FILE")

    _add_trace(sub)
    _add_faults(sub)

    ex = sub.add_parser("example", help="run a narrated example")
    ex.add_argument("name", choices=sorted(EXAMPLES))

    sub.add_parser("info", help="print version and module inventory")

    args = parser.parse_args(argv)
    if args.command in NESTED and args.action is None:
        sub.choices[args.command].print_help()
        return 2
    if args.command == "experiments":
        from repro.experiments.runner import run_experiments

        return run_experiments(args.quick, args.only, args.jobs, args.output)
    if args.command == "campaign":
        from repro.campaign.cli import campaign_command

        return campaign_command(args, sub.choices["campaign"])
    if args.command == "trace":
        from repro.analysis.tracecli import trace_command

        return trace_command(args, sub.choices["trace"])
    if args.command == "faults":
        return _validate_plan(args)
    if args.command == "run":
        from repro.shard.cli import run_command

        return run_command(args, run)
    if args.command == "report":
        from repro.shard.cli import report_command

        return report_command(args, report)
    if args.command == "example":
        script = _examples_dir() / EXAMPLES[args.name]
        if not script.exists():
            print(f"example script not found: {script}", file=sys.stderr)
            return 1
        runpy.run_path(str(script), run_name="__main__")
        return 0
    if args.command == "info":
        print(f"repro {repro.__version__}")
        print(__doc__)
        names = sorted(
            module.name
            for module in pkgutil.iter_modules(repro.__path__)
            if module.ispkg
        )
        print(f"subpackages: {', '.join(names)}")
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
