"""Matching-bound forwarding benchmark (the engine behind BENCH_matching.json).

Models the hot path the paper worries about in Section 6.3: a node's
gradient table holds N interest entries, and every received data
message must be matched against all of them to make the forwarding
decision.  Steady-state diffusion traffic repeats the same attribute
vectors (periodic readings from the same sources), which is exactly
what the :class:`~repro.naming.engine.MatchIndex` memoizes.

Two measurement axes per table size:

* **throughput** — data messages matched per second through
  ``GradientTable.matching_data`` (the indexed, memoizing fast path)
  versus :func:`reference_matching_data` (the pre-optimization linear
  Figure 2 scan, kept here verbatim for before/after comparison);
* **comparison counts** — ``MatchStats.comparisons`` per data message,
  which is deterministic and therefore what tier-1 asserts on
  (``tests/test_match_engine.py``; wall time would flake).

``python -m repro.experiments.matchbench`` writes BENCH_matching.json.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from typing import Dict, List, Tuple

from repro.core.gradient import GradientTable
from repro.naming import AttributeVector, MatchStats, one_way_match
from repro.naming.keys import Key

#: table sizes reported in BENCH_matching.json
DEFAULT_SIZES = (10, 50, 200)

#: distinct data vectors cycled through the stream (periodic readings
#: from this many sources)
DEFAULT_DISTINCT = 16


def build_interest(index: int, rng: random.Random) -> AttributeVector:
    """A realistic 6-attribute interest targeting one task."""
    x = rng.uniform(0.0, 50.0)
    y = rng.uniform(0.0, 50.0)
    return (
        AttributeVector.builder()
        .eq(Key.TASK, f"task-{index}")
        .gt(Key.CONFIDENCE, 50.0)
        .ge(Key.X_COORD, x)
        .le(Key.X_COORD, x + 150.0)
        .ge(Key.Y_COORD, y)
        .le(Key.Y_COORD, y + 150.0)
        .build()
    )


def build_data(index: int, rng: random.Random) -> AttributeVector:
    """A data message answering ``task-{index}``."""
    return (
        AttributeVector.builder()
        .actual(Key.TASK, f"task-{index}")
        .actual(Key.CONFIDENCE, rng.uniform(60.0, 99.0))
        .actual(Key.X_COORD, rng.uniform(50.0, 100.0))
        .actual(Key.Y_COORD, rng.uniform(50.0, 100.0))
        .build()
    )


def build_workload(
    n_entries: int,
    distinct_data: int = DEFAULT_DISTINCT,
    seed: int = 42,
) -> Tuple[GradientTable, List[AttributeVector]]:
    """A gradient table with ``n_entries`` live interests and the pool
    of distinct data vectors the stream cycles through."""
    rng = random.Random(seed)
    table = GradientTable()
    for i in range(n_entries):
        entry = table.entry_for(build_interest(i, rng))
        entry.update_gradient(neighbor=1, now=0.0, timeout=1e9)
    data_pool = [
        build_data(i % max(1, n_entries), rng) for i in range(distinct_data)
    ]
    return table, data_pool


def reference_matching_data(table: GradientTable, data_attrs, now: float, stats=None):
    """The pre-optimization ``GradientTable.matching_data``: a verbatim
    Figure 2 linear scan over every entry, re-materializing list copies
    per call (kept as the before-side of the benchmark)."""
    matches = []
    for entry in table.entries():
        if not entry.has_demand(now):
            continue
        if one_way_match(list(entry.attrs), list(data_attrs), stats):
            matches.append(entry)
    return matches


def count_comparisons(
    n_entries: int,
    messages: int = 200,
    distinct_data: int = DEFAULT_DISTINCT,
    seed: int = 42,
) -> Dict[str, int]:
    """Deterministic comparison counts for ``messages`` data messages
    through both paths, asserting identical verdicts along the way."""
    table, data_pool = build_workload(n_entries, distinct_data, seed)
    ref_stats = MatchStats()
    for i in range(messages):
        data = data_pool[i % len(data_pool)]
        want = {e.digest for e in reference_matching_data(table, data, 0.0, ref_stats)}
        got = {e.digest for e in table.matching_data(data, 0.0)}
        if want != got:
            raise AssertionError(
                f"fast path diverged from reference at message {i}"
            )
    return {
        "messages": messages,
        "reference_comparisons": ref_stats.comparisons,
        "engine_comparisons": table.match_index.comparisons,
        "memo_hits": table.data_memo_hits,
        "memo_misses": table.data_memo_misses,
    }


def measure_throughput(
    n_entries: int,
    messages: int = 2000,
    distinct_data: int = DEFAULT_DISTINCT,
    seed: int = 42,
) -> Dict[str, float]:
    """Wall-clock events/sec for both paths over an identical stream."""
    table, data_pool = build_workload(n_entries, distinct_data, seed)
    stream = [data_pool[i % len(data_pool)] for i in range(messages)]

    # Warm both paths (and the memo) outside the timed region.
    reference_matching_data(table, stream[0], 0.0)
    for data in data_pool:
        table.matching_data(data, 0.0)

    start = time.perf_counter()
    for data in stream:
        reference_matching_data(table, data, 0.0)
    reference_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    for data in stream:
        table.matching_data(data, 0.0)
    engine_elapsed = time.perf_counter() - start

    reference_eps = messages / reference_elapsed if reference_elapsed else 0.0
    engine_eps = messages / engine_elapsed if engine_elapsed else 0.0
    return {
        "reference_events_per_sec": reference_eps,
        "engine_events_per_sec": engine_eps,
        "speedup": engine_eps / reference_eps if reference_eps else 0.0,
    }


def run_bench(
    sizes=DEFAULT_SIZES,
    messages: int = 2000,
    seed: int = 42,
) -> Dict:
    """The full benchmark: throughput plus comparison counts per size."""
    results = []
    for n_entries in sizes:
        counts = count_comparisons(n_entries, seed=seed)
        throughput = measure_throughput(n_entries, messages=messages, seed=seed)
        per_msg_ref = counts["reference_comparisons"] / counts["messages"]
        per_msg_engine = counts["engine_comparisons"] / counts["messages"]
        results.append(
            {
                "interest_entries": n_entries,
                "reference": {
                    "events_per_sec": round(
                        throughput["reference_events_per_sec"], 1
                    ),
                    "comparisons_per_message": round(per_msg_ref, 2),
                },
                "engine": {
                    "events_per_sec": round(throughput["engine_events_per_sec"], 1),
                    "comparisons_per_message": round(per_msg_engine, 2),
                    "memo_hit_rate": round(
                        counts["memo_hits"]
                        / max(1, counts["memo_hits"] + counts["memo_misses"]),
                        4,
                    ),
                },
                "throughput_speedup": round(throughput["speedup"], 2),
                "comparison_reduction": round(
                    per_msg_ref / per_msg_engine, 1
                )
                if per_msg_engine
                else float("inf"),
            }
        )
    return {
        "benchmark": "matching-bound forwarding (GradientTable.matching_data)",
        "workload": (
            f"N interest entries, {DEFAULT_DISTINCT} distinct data vectors "
            f"cycled over {messages} messages (steady-state repetition)"
        ),
        "seed": seed,
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="matching-bound forwarding benchmark"
    )
    parser.add_argument(
        "--out", default="BENCH_matching.json", help="output JSON path"
    )
    parser.add_argument(
        "--messages", type=int, default=2000, help="messages per timed stream"
    )
    args = parser.parse_args(argv)

    report = run_bench(messages=args.messages)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for row in report["results"]:
        print(
            f"{row['interest_entries']:>4} entries: "
            f"{row['reference']['events_per_sec']:>10.0f} -> "
            f"{row['engine']['events_per_sec']:>10.0f} events/s "
            f"({row['throughput_speedup']:.2f}x), comparisons/msg "
            f"{row['reference']['comparisons_per_message']} -> "
            f"{row['engine']['comparisons_per_message']} "
            f"({row['comparison_reduction']}x)"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
