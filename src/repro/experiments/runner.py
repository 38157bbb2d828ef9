"""``python -m repro experiments`` — the EXPERIMENTS.md-style report,
and the paper's claims judged over it.

A section runs the sources its rows of :data:`repro.campaign.claims.CLAIMS`
name, each once: a campaign of :mod:`repro.campaign.builtin` through the
campaign pool (``--jobs N`` spreads its *trials* over N worker
processes), or an in-process source (``claims.SOURCES``).  It prints each
source's table, then one line per claim row.  On the full grids a row is
``PASS`` or ``MISS`` and any miss makes the exit status 1; ``--quick``
prints the values beside their bands and judges nothing.  The flags
(``--quick --only --jobs --output``) are declared in :mod:`repro.__main__`.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from typing import Any, Dict, List, Optional

from repro.analysis.charts import line_chart
from repro.campaign import CAMPAIGNS, get_campaign, report_table, run_campaign
from repro.campaign import claims
from repro.campaign.builtin import (
    FIG8_COLUMNS,
    FIG9_COLUMNS,
    fig8_pivot,
    fig9_pivot,
)
from repro.experiments import duty_cycle, fig11_matching

#: figure -> (its pivot, its curves, chart title, x label, y label)
FIGURES = {
    "fig8": (
        fig8_pivot, FIG8_COLUMNS, "Figure 8: bytes/event vs sources",
        "number of sources", "B/event",
    ),
    "fig9": (
        fig9_pivot, FIG9_COLUMNS,
        "Figure 9: % audio events delivered vs sensors",
        "number of initial sensors", "%",
    ),
}


def print_figure(name: str, report) -> None:
    make_pivot, columns, title, x_label, y_label = FIGURES[name]
    table = make_pivot(report.outcomes)
    curves = {
        label: [(x, cells[flag].mean) for x, cells in sorted(table.items())]
        for flag, label in columns.items()
    }
    print(report_table(name, report))
    print()
    print(line_chart(curves, title=title, x_label=x_label, y_label=y_label))


def print_matching_cost(matching) -> None:
    print(fig11_matching.format_table(matching["fig11"]))
    print()
    print(fig11_matching.format_chart(matching["fig11"]))
    print()
    print(fig11_matching.format_segregation(matching["segregation"]))


def print_traffic_model(model) -> None:
    print("Section 6.1 analytical traffic model (B/event):")
    print(f"{'sources':>8} {'aggregated':>12} {'unaggregated':>14}")
    for row in model.table():
        print(
            f"{row['sources']:>8} {row['aggregated']:>12.0f} "
            f"{row['unaggregated']:>14.0f}"
        )
    print(
        f"paper: flat 990 with aggregation; 990 -> 3289 without "
        f"(ours reaches {model.bytes_per_event(4, False):.0f}; see EXPERIMENTS.md)"
    )


def print_micro_footprint(micro) -> None:
    print("Section 4.3 micro-diffusion footprint:")
    for key, value in micro["footprint"].items():
        print(f"   {key}: {value}")
    tiered = micro["tiered"]
    print("tiered motes behind a gateway (4-mote chain, ideal links):")
    print(f"   photo samples delivered to the user: {tiered['delivered']}")
    print(f"   interests bridged down: {tiered['interests_bridged']}")
    print(f"   data messages bridged up: {tiered['data_bridged']}")


#: in-process source -> how its table prints
PRINTERS = {
    "matching": print_matching_cost,
    "duty-model": lambda model: print(
        duty_cycle.format_table(duty_cycle.run_duty_cycle_analysis(model))
    ),
    "traffic-model": print_traffic_model,
    "micro": print_micro_footprint,
}


def run_source(name: str, quick: bool, jobs: int) -> Any:
    """Run one source, print its table, and return what its rows read:
    a campaign's trial outcomes, or the in-process source's value."""
    if name not in CAMPAIGNS:
        value = claims.SOURCES[name](quick)
        PRINTERS[name](value)
        return value
    campaign = get_campaign(name, quick=quick)
    report = run_campaign(campaign, jobs=jobs)
    if not report.ok:
        errors = [o.error for o in report.outcomes if o.error]
        raise RuntimeError(f"{name}: campaign did not finish: {errors[:1]}")
    if name in FIGURES:
        print_figure(name, report)
    else:
        print(f"{name}: {campaign.description}")
        print(report_table(name, report))
    return report.outcomes


def run_section(name: str, quick: bool, jobs: int) -> int:
    """Print one section's tables and claim lines; return its misses."""
    rows = claims.section_claims(name)
    data: Dict[str, Any] = {}
    for claim in rows:
        if claim.source not in data:
            data[claim.source] = run_source(claim.source, quick, jobs)
            print()
    misses = 0
    for claim in rows:
        value = claim.metric(data[claim.source])
        misses += not (quick or claim.holds(value))
        print(claims.claim_line(claim, value, judged=not quick))
    return misses


def run_experiments(
    quick: bool, only: Optional[List[str]], jobs: int, output: Optional[str]
) -> int:
    """Run the ``only`` sections (default all) in report order, echoing
    each as it finishes; ``output`` also gets them, fenced for markdown.
    Exit status 1 if a full-grid claim missed its band."""
    captured: List[str] = []
    misses = 0
    for name in claims.SECTIONS:
        if only and name not in only:
            continue
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            print("=" * 72)
            print(f"[{name}]")
            start = time.time()
            misses += run_section(name, quick, jobs)
            print(f"({name} took {time.time() - start:.1f}s)")
            print()
        sys.stdout.write(buffer.getvalue())
        captured.append(buffer.getvalue())
    if output:
        with open(output, "w") as handle:
            handle.write("# Experiment report\n\n```text\n")
            handle.write("".join(captured))
            handle.write("```\n")
        print(f"report written to {output}")
    if misses:
        print(f"{misses} claim(s) missed their band", file=sys.stderr)
    return 1 if misses else 0
