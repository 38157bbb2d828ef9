"""Human-readable rendering of disruption-tolerant transfer results.

Pure formatting over the JSON-safe outcome of a ``dtn`` or ``mule``
plan (:mod:`repro.shard.scenario`) — no simulation imports, so saved
results render without
touching the engine.  The centerpiece is the loss-attribution table:
every undelivered block charged to a cause, with ``unattributed``
called out loudly because the dtn campaign gates on it being zero.
"""

from __future__ import annotations

from typing import List, Optional


def _ratio(value: Optional[float]) -> str:
    return f"{value:6.1%}" if value is not None else "   n/a"


def format_dtn_report(result: dict) -> str:
    """Render one dtn/mule-run result dict as a text report."""
    lines: List[str] = []
    scenario = result.get("scenario", "?")
    seed = result.get("seed", "?")
    custody = result.get("custody", "?")
    header = f"dtn run: scenario={scenario} seed={seed} custody={custody}"
    duty = result.get("duty")
    if duty is not None:
        header += f" duty={duty:g}"
    mode = result.get("mode")
    if mode and mode != "flat":
        header += f" mode={mode}"
    lines.append(header)

    offered = result.get("offered", 0)
    delivered = result.get("delivered", 0)
    lines.append(
        f"delivery: {delivered}/{offered} blocks "
        f"({_ratio(result.get('delivery_ratio')).strip()}), "
        f"{result.get('delivery_during_partition', 0)} during partition, "
        f"{result.get('delivery_after_partition', 0)} after"
    )
    completed_at = result.get("completed_at")
    if result.get("completed"):
        lines.append(f"object complete at t={completed_at:.1f}s")
    else:
        lines.append("object incomplete at end of run")

    custody_stats = result.get("custody_stats") or {}
    if custody_stats.get("accepted"):
        lines.append(
            "custody: "
            f"{custody_stats.get('accepted', 0)} accepted, "
            f"{custody_stats.get('transferred', 0)} released, "
            f"{custody_stats.get('expired', 0)} expired, "
            f"{custody_stats.get('held_at_end', 0)} held at end "
            f"(depth high-water {custody_stats.get('depth_high_water', 0)})"
        )
        lines.append(
            "carry:   "
            f"{custody_stats.get('reinjections', 0)} re-injections "
            f"({custody_stats.get('beacons', 0)} carrier beacons), "
            f"{custody_stats.get('contacts', 0)} contact triggers, "
            f"{custody_stats.get('custody_acks', 0)} custody acks"
        )
    transfer = result.get("transfer") or {}
    if transfer:
        lines.append(
            "transfer: "
            f"{transfer.get('blocks_sent', 0)} blocks sent "
            f"({transfer.get('retransmits', 0)} retransmits), "
            f"{transfer.get('repairs_served', 0)} repairs, "
            f"{transfer.get('acks_received', 0)} acks heard"
        )

    attribution = result.get("attribution") or {}
    lost = offered - delivered
    if lost:
        lines.append("")
        lines.append(f"loss attribution ({lost} block(s)):")
        width = max(len(reason) for reason in attribution)
        for reason, count in sorted(
            attribution.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"  {reason:<{width}}  {count:>4}")
        unattributed = result.get("unattributed", 0)
        if unattributed:
            lines.append(
                f"  WARNING: {unattributed} block(s) unattributed — "
                "the evidence chain has a hole"
            )
    else:
        lines.append("no losses: every block arrived")

    violations = result.get("violations") or []
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
