"""Parallel, resumable experiment campaigns with content-addressed caching.

The paper's authors ran a second, wired network just to collect
experiment data and listed "more flexible logging" and "analysis tools
for these networks" as missing (Section 7).  This package is that
tooling for the reproduction: declare a parameter sweep once
(:class:`Campaign`), expand it into deterministic seeded trials
(:class:`TrialSpec`), run them across worker processes
(:func:`run_campaign`), cache every result by a content hash of
config + seed + code version (:class:`ResultStore`), and fold the
per-trial outputs into the paper's mean ± 95% CI tables
(:mod:`repro.campaign.aggregate`).

Interrupting a campaign is safe: completed trials are persisted
atomically and the next ``run`` serves them from cache, executing only
what is left.
"""

from repro.campaign.aggregate import (
    AggregateRow,
    aggregate,
    format_pivot,
    format_table,
    pivot,
)
from repro.campaign.builtin import CAMPAIGNS, get_campaign, report_table
from repro.campaign.pool import CampaignReport, TrialOutcome, run_campaign
from repro.campaign.progress import CampaignProgress
from repro.campaign.spec import (
    Campaign,
    TrialSpec,
    canonical_json,
    code_version,
    resolve_trial,
    trial_key,
)
from repro.campaign.store import ResultStore, default_store_root

__all__ = [
    "AggregateRow",
    "aggregate",
    "format_pivot",
    "format_table",
    "pivot",
    "CAMPAIGNS",
    "get_campaign",
    "report_table",
    "CampaignReport",
    "TrialOutcome",
    "run_campaign",
    "CampaignProgress",
    "Campaign",
    "TrialSpec",
    "canonical_json",
    "code_version",
    "resolve_trial",
    "trial_key",
    "ResultStore",
    "default_store_root",
]
