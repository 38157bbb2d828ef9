"""Compare two result files of ``run.py --out``.

    python perf/compare.py A.json B.json        # A is the base

One row per workload and end-to-end metric: both values, the ratio B/A,
the bound from ``BENCHMARK.json`` and a verdict.

* Host metrics (wall_s, cpu_s, peak_rss_mb, setup_s) are ``same`` while
  B's value is within the bound of A's, else ``better`` / ``worse`` —
  unless the two sets of rounds overlap (B's best run is no worse than
  A's worst, or the reverse), which makes the row ``unresolved``: the
  spread is wider than the difference, so neither claim holds.
* Simulated metrics and ``outcome_digest`` are pure functions of the
  seed: at equal seeds they must be equal (``same``), and any difference
  is ``better`` / ``worse`` by the metric's direction (``changed`` for a
  digest).  At different seeds they are not comparable (``n/a``).

Exit status is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from metrics import END_TO_END, SETUP_ABS_SLACK_S

ROOT = Path(__file__).resolve().parent.parent


def host_verdict(a: Dict[str, Any], b: Dict[str, Any], lower_is_better: bool,
                 bound: float, abs_slack: float = 0.0) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worsening = sign * (b["value"] - a["value"])
    if abs(worsening) <= max(bound * abs(a["value"]), abs_slack):
        return "same"
    # Runs as "badness": larger is worse whatever the direction.
    a_best, a_worst = sorted((sign * a["min"], sign * a["max"]))
    b_best, b_worst = sorted((sign * b["min"], sign * b["max"]))
    if worsening > 0:
        return "worse" if b_best > a_worst else "unresolved"
    return "better" if b_worst < a_best else "unresolved"


def exact_verdict(a: Optional[float], b: Optional[float],
                  lower_is_better: bool, same_seed: bool) -> str:
    if not same_seed:
        return "n/a"
    if a == b:
        return "same"
    if a is None or b is None:
        return "worse" if b is None else "better"
    return "better" if (b < a) == lower_is_better else "worse"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            bounds: Dict[str, float]) -> Tuple[List[str], bool]:
    """Report lines and whether any row is ``worse``."""
    same_seed = a["seed"] == b["seed"]
    lines = [
        f"A: seed {a['seed']} commit {a['host']['git_commit'][:12]}"
        f"{' (noisy)' if a['host']['noisy'] else ''}   "
        f"B: seed {b['seed']} commit {b['host']['git_commit'][:12]}"
        f"{' (noisy)' if b['host']['noisy'] else ''}",
        f"{'workload':<20} {'metric':<18} {'A':>12} {'B':>12} "
        f"{'B/A':>8} {'bound':>7}  verdict",
    ]
    any_worse = False
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<20} missing from B")
            continue
        for metric in END_TO_END:
            ea = wa["end_to_end"].get(metric.name)
            eb = wb["end_to_end"].get(metric.name)
            if ea is None or eb is None:
                continue
            lower = metric.better == "lower"
            va, vb = ea["value"], eb["value"]
            if metric.kind == "host":
                bound = bounds[metric.name]
                verdict = host_verdict(
                    ea, eb, lower, bound,
                    SETUP_ABS_SLACK_S if metric.name == "setup_s" else 0.0,
                )
                bound_text = f"{bound:.0%}"
            else:
                verdict = exact_verdict(va, vb, lower, same_seed)
                bound_text = "exact"
            ratio = f"{vb / va:.3f}" if va and vb is not None else "-"
            lines.append(
                f"{name:<20} {metric.name:<18} {_num(va):>12} {_num(vb):>12} "
                f"{ratio:>8} {bound_text:>7}  {verdict}"
            )
            any_worse |= verdict == "worse"
        digest = (
            "n/a" if not same_seed
            else "same" if wa["outcome_digest"] == wb["outcome_digest"]
            else "changed"
        )
        lines.append(
            f"{name:<20} {'outcome_digest':<18} {wa['outcome_digest'][:12]:>12} "
            f"{wb['outcome_digest'][:12]:>12} {'':>8} {'exact':>7}  {digest}"
        )
    return lines, any_worse


def _num(value: Optional[float]) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    lines, any_worse = compare(a, b, bounds)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
