#!/usr/bin/env python3
"""In-network aggregation on the ISI testbed (paper Sections 5.1, 6.1).

Runs the registry's ``fig8`` preset — sink at node 28, four sources
reporting the same synchronized detections — once with the suppression
filter on every node and once without, then prints the traffic saved.
Each run is ``python -m repro run fig8 -p suppression=... --duration
600 --seed 42``: a short single-trial version of the experiment; the
full five-trial, 30-minute sweep is ``python -m repro campaign run fig8``.

Run:  python examples/surveillance_aggregation.py
"""

from repro.shard import ShardPlan, run_oracle
from repro.testbed import FIG8_SINK

DURATION = 600.0


def main() -> None:
    results = {
        suppression: run_oracle(ShardPlan.named(
            "fig8", {"suppression": suppression}, seed=42, duration=DURATION
        ))
        for suppression in (True, False)
    }
    print(f"ISI testbed, 4 sources -> sink {FIG8_SINK}, "
          f"{DURATION / 60:.0f} minutes\n")
    for suppression, r in results.items():
        label = "with suppression   " if suppression else "without suppression"
        print(
            f"{label}: {r['diffusion_bytes_sent']:>8} bytes total, "
            f"{r['distinct_events_received']:>3}/{r['events_generated']} "
            f"distinct events -> {r['bytes_per_event']:7.0f} B/event"
        )
    saved = 1.0 - (
        results[True]["bytes_per_event"] / results[False]["bytes_per_event"]
    )
    print(f"\ntraffic saved by in-network aggregation: {saved:.0%}")
    print("(the paper reports up to 42% at four sources)")


if __name__ == "__main__":
    main()
