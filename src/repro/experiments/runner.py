"""``python -m repro experiments`` — the EXPERIMENTS.md-style report.

Figures 8 and 9 are the ``fig8`` / ``fig9`` campaigns of
:mod:`repro.campaign.builtin` run through the campaign pool, so
``--jobs N`` spreads their *trials* over N worker processes; the other
sections are sub-second and run here.  The flags (``--quick --only
--jobs --output``) are declared in :mod:`repro.__main__`.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from typing import List, Optional

from repro.analysis import TrafficModel
from repro.analysis.charts import line_chart
from repro.campaign import get_campaign, report_table, run_campaign
from repro.campaign.builtin import (
    FIG8_COLUMNS,
    FIG9_COLUMNS,
    fig8_pivot,
    fig9_pivot,
)
from repro.experiments import duty_cycle, fig11_matching
from repro.micro import MicroConfig
from repro.micro.footprint import footprint_report

EXPERIMENT_ORDER = ("fig8", "fig9", "fig11", "duty", "model", "micro")

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


def savings_at(table, sources: int) -> float:
    """Fractional traffic saved by suppression, off a ``fig8_pivot``."""
    return 1.0 - table[sources][True].mean / table[sources][False].mean


def loss_reduction_at(table, num_lights: int) -> float:
    """Percentage points of loss removed by nesting, off a ``fig9_pivot``."""
    return table[num_lights][True].mean - table[num_lights][False].mean


def run_figure(name: str, quick: bool, jobs: int) -> None:
    """Run one figure's campaign; print its table, chart and headline."""
    report = run_campaign(get_campaign(name, quick=quick), jobs=jobs)
    if not report.ok:
        errors = [o.error for o in report.outcomes if o.error]
        raise RuntimeError(f"{name}: campaign did not finish: {errors[:1]}")
    make_pivot, columns, title, x_label, y_label = FIGURES[name]
    table = make_pivot(report.outcomes)
    curves = {
        label: [(x, cells[flag].mean) for x, cells in sorted(table.items())]
        for flag, label in columns.items()
    }
    print(report_table(name, report))
    print()
    print(line_chart(curves, title=title, x_label=x_label, y_label=y_label))
    if name == "fig8":
        print(f"savings at 4 sources: {savings_at(table, 4):.0%} (paper: 42%)")
    else:
        for n in sorted(table):
            print(
                f"loss reduction from nesting at {n} sensor(s): "
                f"{loss_reduction_at(table, n):.0f} points (paper: 15-30)"
            )


def run_traffic_model() -> None:
    model = TrafficModel()
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


def run_micro_footprint() -> None:
    report = footprint_report(MicroConfig())
    print("Section 4.3 micro-diffusion footprint:")
    for key, value in report.items():
        print(f"   {key}: {value}")


def run_experiments(
    quick: bool, only: Optional[List[str]], jobs: int, output: Optional[str]
) -> int:
    """Run the ``only`` sections (default all) in report order, echoing
    each as it finishes; ``output`` also gets them, fenced for markdown."""
    sections = {
        "fig8": lambda: run_figure("fig8", quick, jobs),
        "fig9": lambda: run_figure("fig9", quick, jobs),
        "fig11": lambda: fig11_matching.main(iterations=500 if quick else 2000),
        "duty": duty_cycle.main,
        "model": run_traffic_model,
        "micro": run_micro_footprint,
    }
    captured: List[str] = []
    for name in EXPERIMENT_ORDER:
        if only and name not in only:
            continue
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            print("=" * 72)
            print(f"[{name}]")
            start = time.time()
            sections[name]()
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
    return 0
