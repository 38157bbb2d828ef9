"""``python -m repro campaign`` — run/status/clean/list campaigns.

Usage::

    python -m repro campaign list
    python -m repro campaign run scale-aggregation --quick --jobs 4
    python -m repro campaign status scale-aggregation --quick
    python -m repro campaign clean scale-aggregation --quick

Results land in a content-addressed store (``--store``, default
``.repro-campaigns`` or ``$REPRO_CAMPAIGN_DIR``); re-running a campaign
serves completed trials from cache, so ``run`` after an interruption
resumes where it stopped.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.campaign.builtin import CAMPAIGNS, get_campaign, report_table
from repro.campaign.pool import run_campaign
from repro.campaign.progress import CampaignProgress
from repro.campaign.store import ResultStore, default_store_root
from repro.cliargs import non_negative_int, positive_float, positive_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("name", choices=sorted(CAMPAIGNS))
        p.add_argument("--quick", action="store_true",
                       help="reduced durations/replicates")
        p.add_argument("--seed", type=int, default=None,
                       help="campaign root seed override")
        p.add_argument("--store", default=None,
                       help="result-store directory "
                            "(default: $REPRO_CAMPAIGN_DIR or .repro-campaigns)")

    run = sub.add_parser("run", help="run (or resume) a campaign")
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

    status = sub.add_parser("status", help="cached vs pending trial counts")
    add_common(status)

    clean = sub.add_parser("clean", help="drop a campaign's cached results")
    add_common(clean)
    clean.add_argument("--everything", action="store_true",
                       help="drop ALL entries in the store, not just this "
                            "campaign's current trial keys")

    sub.add_parser("list", help="list known campaigns")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        for name in sorted(CAMPAIGNS):
            campaign = get_campaign(name, quick=True)
            print(f"{name:<22} {campaign.description}")
        return 0

    campaign = get_campaign(args.name, quick=args.quick, root_seed=args.seed)
    store = ResultStore(args.store if args.store else default_store_root())

    if args.command == "status":
        specs = campaign.expand()
        cached = sum(1 for spec in specs if store.get(spec.key) is not None)
        print(f"campaign {campaign.name}: {len(specs)} trials, "
              f"{cached} cached, {len(specs) - cached} pending")
        stats = store.stats()
        print(f"store {store.root}: {stats['entries']} entries, "
              f"{stats['bytes']} bytes")
        return 0

    if args.command == "clean":
        if args.everything:
            removed = store.clean()
        else:
            keys = [spec.key for spec in campaign.expand()]
            removed = store.clean(key for key in keys if key in store)
        print(f"removed {removed} entries from {store.root}")
        return 0

    # run
    progress = CampaignProgress(campaign.name, log_path=args.log, echo=True)
    report = run_campaign(
        campaign,
        jobs=args.jobs,
        store=store,
        timeout=args.timeout,
        retries=args.retries,
        force=args.force,
        progress=progress,
        max_trials=args.max_trials,
    )
    print()
    print(report_table(args.name, report))
    if report.interrupted:
        print("interrupted — re-run to resume from the cache", file=sys.stderr)
        return 130
    return 0 if report.failed == 0 and report.pending == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
