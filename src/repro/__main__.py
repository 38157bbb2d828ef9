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
(:mod:`repro.shard.cli`); ``trace`` analyses what ``run --trace`` wrote.
"""

from __future__ import annotations

import argparse
import pkgutil
import runpy
import sys
from pathlib import Path

import repro
from repro.cliargs import positive_int

EXAMPLES = {
    "quickstart": "quickstart.py",
    "animal-tracking": "animal_tracking.py",
    "surveillance": "surveillance_aggregation.py",
    "nested-queries": "nested_queries.py",
    "bulk-transfer": "bulk_transfer.py",
    "target-tracking": "target_tracking.py",
}


def _examples_dir() -> Path:
    # examples/ sits next to src/ in a source checkout.
    return Path(__file__).resolve().parents[2] / "examples"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Building Efficient Wireless Sensor "
        "Networks with Low-Level Naming' (SOSP 2001)",
    )
    sub = parser.add_subparsers(dest="command")

    exp = sub.add_parser("experiments", help="regenerate the paper's figures")
    exp.add_argument(
        "--quick", action="store_true",
        help="reduced trials and durations (~20x faster, noisier CIs)",
    )
    exp.add_argument(
        "--only",
        action="append",
        choices=["fig8", "fig9", "fig11", "duty", "model", "micro"],
        help="run a single section (repeatable)",
    )
    exp.add_argument(
        "--jobs", type=positive_int, default=1,
        help="worker processes for the fig8 / fig9 campaign trials",
    )
    exp.add_argument(
        "--output", metavar="FILE",
        help="also write the report to this file (fenced for markdown)",
    )

    camp = sub.add_parser(
        "campaign",
        help="run/status/clean parameter-sweep campaigns",
        add_help=False,
    )
    camp.add_argument("args", nargs=argparse.REMAINDER)

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

    trace = sub.add_parser(
        "trace",
        help="summarize/paths/timeline/profile over JSONL traces",
        add_help=False,
    )
    trace.add_argument("args", nargs=argparse.REMAINDER)

    flt = sub.add_parser("faults", help="validate fault plans", add_help=False)
    flt.add_argument("args", nargs=argparse.REMAINDER)

    ex = sub.add_parser("example", help="run a narrated example")
    ex.add_argument("name", choices=sorted(EXAMPLES))

    sub.add_parser("info", help="print version and module inventory")

    args = parser.parse_args(argv)
    if args.command == "experiments":
        from repro.experiments.runner import run_experiments

        return run_experiments(args.quick, args.only, args.jobs, args.output)
    if args.command == "campaign":
        from repro.campaign.cli import main as campaign_main

        return campaign_main(args.args)
    if args.command == "trace":
        from repro.analysis.tracecli import main as trace_main

        return trace_main(args.args)
    if args.command == "faults":
        from repro.faults.cli import main as faults_main

        return faults_main(args.args)
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
