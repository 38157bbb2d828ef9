"""Human-readable rendering of resilience-run results.

Pure formatting over the JSON-safe outcome of a ``resilience`` plan
(:mod:`repro.shard.scenario`) — no simulation
imports, so trace tooling and the ``faults report`` CLI can render
saved results without touching the engine.
"""

from __future__ import annotations

from typing import List, Optional


def _ratio(value: Optional[float]) -> str:
    return f"{value:6.1%}" if value is not None else "   n/a"


def _seconds(value: Optional[float]) -> str:
    return f"{value:7.2f}s" if value is not None else "    n/a"


def format_resilience_report(result: dict) -> str:
    """Render one resilience-run result dict as a text report."""
    lines: List[str] = []
    fault = result.get("fault", "?")
    seed = result.get("seed", "?")
    lines.append(f"resilience run: fault={fault} seed={seed}")
    report = result.get("report", {})
    interval = report.get("exploratory_interval")
    if interval:
        lines.append(f"exploratory interval: {interval:g}s")
    lines.append(
        "messages: "
        f"{report.get('messages_originated', 0)} originated, "
        f"{report.get('messages_delivered', 0)} delivered "
        f"(overall {_ratio(report.get('overall_delivery'))})"
    )

    faults = report.get("faults", [])
    if faults:
        lines.append("")
        lines.append(
            f"{'fault':<20} {'inject':>8} {'heal':>8} "
            f"{'during':>7} {'after':>7} {'repair':>9} {'intervals':>9}"
        )
        for entry in faults:
            intervals = entry.get("repair_intervals")
            intervals_text = (
                f"{intervals:9.2f}" if intervals is not None else f"{'n/a':>9}"
            )
            lines.append(
                f"{entry.get('kind', '?'):<20} "
                f"{_seconds(entry.get('inject_at')):>8} "
                f"{_seconds(entry.get('heal_at')):>8} "
                f"{_ratio(entry.get('delivery_during')):>7} "
                f"{_ratio(entry.get('delivery_after')):>7} "
                f"{_seconds(entry.get('time_to_repair')):>9} "
                f"{intervals_text}"
            )

    corrupted = result.get("fragments_corrupted", 0)
    if corrupted:
        lines.append(f"fragments corrupted: {corrupted}")

    violations = result.get("violations", [])
    if violations:
        lines.append("")
        lines.append(f"INVARIANT VIOLATIONS ({len(violations)}):")
        for violation in violations[:10]:
            lines.append(f"  {violation}")
        if len(violations) > 10:
            lines.append(f"  ... and {len(violations) - 10} more")
    else:
        lines.append("invariants: all held")
    return "\n".join(lines)
