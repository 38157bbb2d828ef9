"""Experiment harnesses for the paper artifacts that are not full-stack
runs: Figure 11's matching cost and the Section 6.1 duty-cycle
analysis.  Each module exposes a ``run_*`` function
returning structured results and a ``format_table`` that renders the
paper-style table; ``python -m repro experiments --only fig11|duty``
prints them.

Figures 8 and 9 are not here: a full-stack experiment is a preset of
the scenario registry (``python -m repro run fig8|fig9``) and its sweep
a campaign (``python -m repro campaign run fig8|fig9``);
:mod:`repro.experiments.runner` prints both with the rest of the report
(``python -m repro experiments``).
"""

from repro.experiments.fig11_matching import (
    MatchingVariant,
    build_set_a,
    build_set_b,
    measure_matching,
    run_fig11,
)
from repro.experiments.duty_cycle import run_duty_cycle_analysis

__all__ = [
    "MatchingVariant",
    "build_set_a",
    "build_set_b",
    "measure_matching",
    "run_fig11",
    "run_duty_cycle_analysis",
]
