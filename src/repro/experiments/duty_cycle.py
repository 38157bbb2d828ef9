"""Section 6.1's duty-cycle energy analysis as a reproducible table.

The paper cannot measure energy directly and instead analyses
``Pd = d*pl*tl + pr*tr + ps*ts`` at several listen duty cycles,
concluding that d=1 is listen-dominated, d≈22% splits energy evenly
with listening, and d≈10% is send-dominated.
"""

from __future__ import annotations

from typing import List

from repro.energy.model import DutyCycleModel, paper_duty_cycle_table


def run_duty_cycle_analysis(model: DutyCycleModel = None) -> List[dict]:
    """Rows of the Section 6.1 analysis plus the two crossovers."""
    model = model or DutyCycleModel()
    rows = paper_duty_cycle_table(model)
    rows.append(
        {
            "duty_cycle": model.listen_half_duty_cycle(),
            "note": "listen = half of total energy (paper: ~22%)",
        }
    )
    rows.append(
        {
            "duty_cycle": model.send_dominance_duty_cycle(),
            "note": "below this, send energy exceeds listen (paper: ~10-15%)",
        }
    )
    return rows


def format_table(rows: List[dict]) -> str:
    lines = [
        "Section 6.1 — duty-cycle energy analysis "
        "(power 1:2:2, time listen-heavy)",
        f"{'duty':>6} {'listen%':>9} {'recv%':>7} {'send%':>7} {'rel. energy':>12}",
    ]
    for row in rows:
        if "note" in row:
            lines.append(f"{row['duty_cycle']:>6.2f}  <- {row['note']}")
        else:
            lines.append(
                f"{row['duty_cycle']:>6.2f} "
                f"{row['listen_fraction']:>8.0%} "
                f"{row['receive_fraction']:>6.0%} "
                f"{row['send_fraction']:>6.0%} "
                f"{row['relative_energy']:>12.1f}"
            )
    return "\n".join(lines)

