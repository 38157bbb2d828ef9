#!/usr/bin/env python3
"""Collaborative signal processing: tracking a moving target.

Paper Section 5.3 describes BAE/PSU sensor fusion over diffusion and
calls evaluating "how sensor fusion would be done as a filter"
interesting future work.  The registry's ``tracking`` preset is that
filter: a 4x4 field of acoustic proximity sensors watches a target
cross the field; fusion filters at two central relays combine
concurrent detections (confidence 1 - prod(1 - c_i),
confidence-weighted centroid) on their way to the user at node 7.
This prints the track ``python -m repro run tracking --seed 23`` reports.

Run:  python examples/target_tracking.py
"""

from repro.shard import ShardPlan, run_oracle


def main() -> None:
    result = run_oracle(ShardPlan.named("tracking", {}, seed=23))

    print("target track as seen by the user:")
    print(f"{'time':>7} {'epoch':>6} {'estimate':>18} {'truth':>18} {'conf':>6}")
    for point in result["track"]:
        truth_x, truth_y = point["truth"]
        print(
            f"{point['time']:7.1f} {point['epoch']:6d} "
            f"({point['x']:6.1f}, {point['y']:5.1f})  "
            f"({truth_x:6.1f}, {truth_y:5.1f})  {point['confidence']:5.2f}"
        )
    print(f"\nmean tracking error : {result['mean_error']:.1f} m "
          f"(sensor spacing is 15 m)")
    print(f"raw sensor reports  : {result['raw_reports']}")
    print(f"merged in-network   : {result['reports_fused']} "
          f"(into {result['fused_estimates']} fused estimates)")


if __name__ == "__main__":
    main()
