"""Command-line entry point.

Usage::

    python -m repro experiments [--quick] [--only fig8] [--jobs 4]
    python -m repro campaign run scale-aggregation --jobs 4
    python -m repro trace record --out run.jsonl --scenario isi
    python -m repro trace paths run.jsonl
    python -m repro trace shards --scenario flood --shards 2
    python -m repro faults run --fault partition
    python -m repro dtn run --duty 0.6
    python -m repro example quickstart
    python -m repro info
"""

from __future__ import annotations

import argparse
import pkgutil
import runpy
import sys
from pathlib import Path

import repro

EXAMPLES = {
    "quickstart": "quickstart.py",
    "animal-tracking": "animal_tracking.py",
    "surveillance": "surveillance_aggregation.py",
    "nested-queries": "nested_queries.py",
    "tiered-motes": "tiered_motes.py",
    "energy-monitoring": "energy_monitoring.py",
    "bulk-transfer": "bulk_transfer.py",
    "target-tracking": "target_tracking.py",
    "query-console": "query_console.py",
    "adaptive-sampling": "adaptive_sampling.py",
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
    exp.add_argument("--quick", action="store_true")
    exp.add_argument(
        "--only",
        action="append",
        choices=["fig8", "fig9", "fig11", "duty", "model", "micro"],
    )
    exp.add_argument("--jobs", type=int, default=1)

    camp = sub.add_parser(
        "campaign",
        help="run/status/clean parameter-sweep campaigns",
        add_help=False,
    )
    camp.add_argument("args", nargs=argparse.REMAINDER)

    trace = sub.add_parser(
        "trace",
        help="record/summarize/paths/timeline/profile over JSONL traces",
        add_help=False,
    )
    trace.add_argument("args", nargs=argparse.REMAINDER)

    flt = sub.add_parser(
        "faults",
        help="validate/run/report fault plans",
        add_help=False,
    )
    flt.add_argument("args", nargs=argparse.REMAINDER)

    dtn = sub.add_parser(
        "dtn",
        help="run/report disruption-tolerant transfers",
        add_help=False,
    )
    dtn.add_argument("args", nargs=argparse.REMAINDER)

    ex = sub.add_parser("example", help="run a narrated example")
    ex.add_argument("name", choices=sorted(EXAMPLES))

    sub.add_parser("info", help="print version and module inventory")

    args = parser.parse_args(argv)
    if args.command == "experiments":
        from repro.experiments.runner import main as runner_main

        runner_args = []
        if args.quick:
            runner_args.append("--quick")
        for only in args.only or ():
            runner_args.extend(["--only", only])
        if args.jobs != 1:
            runner_args.extend(["--jobs", str(args.jobs)])
        return runner_main(runner_args)
    if args.command == "campaign":
        from repro.campaign.cli import main as campaign_main

        return campaign_main(args.args)
    if args.command == "trace":
        from repro.analysis.tracecli import main as trace_main

        return trace_main(args.args)
    if args.command == "faults":
        from repro.faults.cli import main as faults_main

        return faults_main(args.args)
    if args.command == "dtn":
        from repro.dtn.cli import main as dtn_main

        return dtn_main(args.args)
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
