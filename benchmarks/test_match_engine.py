"""Benchmark: matching-bound forwarding throughput (the hot path).

Section 6.3 measures one-way matching as the dominant forwarding cost;
this benchmark measures what the PR's matching engine buys on the
forwarding decision itself: ``GradientTable.matching_data`` over
10/50/200 interest entries versus the pre-optimization linear Figure 2
scan, on a steady-state stream that repeats data vectors the way
periodic sources do.

Two kinds of assertion:

* comparison *counts* (``MatchStats``-style) are deterministic and must
  drop >=5x — tier-1 holds the 50-entry case too
  (``tests/test_match_engine.py``);
* wall-clock throughput must improve >=3x at 50 entries (the
  acceptance bar; measured speedups are far higher).

Running this module rewrites ``BENCH_matching.json`` at the repo root
so the perf trajectory keeps recording.
"""

import json
import pathlib

import pytest

from repro.experiments.matchbench import (
    DEFAULT_SIZES,
    count_comparisons,
    measure_throughput,
    run_bench,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("n_entries", DEFAULT_SIZES)
def test_comparison_counts_drop(n_entries):
    counts = count_comparisons(n_entries)
    assert counts["reference_comparisons"] >= 5 * counts["engine_comparisons"]
    # Steady-state streams are served from the memo.
    assert counts["memo_hits"] > counts["memo_misses"]


def test_throughput_speedup_at_50_entries():
    """Acceptance bar: >=3x matching-bound throughput at 50 entries."""
    result = measure_throughput(n_entries=50, messages=2000)
    assert result["speedup"] >= 3.0, result


@pytest.mark.parametrize("n_entries", (10, 200))
def test_throughput_improves_across_sizes(n_entries):
    result = measure_throughput(n_entries=n_entries, messages=2000)
    assert result["speedup"] > 1.5, result


def test_bench_trajectory_recorded():
    """Regenerate BENCH_matching.json (checked in) from this host."""
    report = run_bench(messages=2000)
    out = REPO_ROOT / "BENCH_matching.json"
    with out.open("w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    at_50 = next(
        row for row in report["results"] if row["interest_entries"] == 50
    )
    assert at_50["throughput_speedup"] >= 3.0
    assert at_50["comparison_reduction"] >= 5.0
