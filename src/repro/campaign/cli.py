"""``python -m repro campaign list|run|status|clean`` — the handler.

The flags, and the help text on the result store and resuming, are
declared in :mod:`repro.__main__`, which imports this module (and with
it the campaign pool and store) only to run a campaign subcommand.
"""

from __future__ import annotations

import sys

from repro.campaign.builtin import CAMPAIGNS, get_campaign, report_table
from repro.campaign.pool import run_campaign
from repro.campaign.progress import CampaignProgress
from repro.campaign.store import ResultStore, default_store_root


def campaign_command(args, parser) -> int:
    """Run ``args.action`` (``list|run|status|clean``); an unknown
    campaign name is a usage error on ``parser``."""
    if args.action == "list":
        for name in sorted(CAMPAIGNS):
            campaign = get_campaign(name, quick=True)
            print(f"{name:<22} {campaign.description}")
        return 0

    try:
        campaign = get_campaign(args.name, quick=args.quick,
                                root_seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    store = ResultStore(args.store if args.store else default_store_root())

    if args.action == "status":
        specs = campaign.expand()
        cached = sum(1 for spec in specs if store.get(spec.key) is not None)
        print(f"campaign {campaign.name}: {len(specs)} trials, "
              f"{cached} cached, {len(specs) - cached} pending")
        stats = store.stats()
        print(f"store {store.root}: {stats['entries']} entries, "
              f"{stats['bytes']} bytes")
        return 0

    if args.action == "clean":
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

