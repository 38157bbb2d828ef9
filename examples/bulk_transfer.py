#!/usr/bin/env python3
"""Reliable transfer of a large persistent object (paper Section 3.1).

The paper leaves loss recovery to applications but was "developing
[a] retransmission scheme for applications that transfer large,
persistent data objects".  The registry's ``dtn`` preset moves a 2 KB
object across a 4x3 grid as named blocks; with ``duty=0.0`` the grid is
never partitioned, so this is the plain scheme: the receiver NACKs the
holes and repairs flood until the object is complete.  Custody transfer
(the preset's default) adds per-block acks and hop-by-hop custody on
top; the run below shows both (``python -m repro run dtn -p duty=0.0
-p custody=false``).

Run:  python examples/bulk_transfer.py
"""

from repro.shard import ShardPlan, run_oracle


def main() -> None:
    for custody in (False, True):
        result = run_oracle(ShardPlan.named(
            "dtn", {"duty": 0.0, "custody": custody}, seed=1
        ))
        transfer = result["transfer"]
        print(f"custody={custody}: {result['delivered']}/{result['offered']} "
              f"blocks, object complete: {result['completed']} "
              f"(t={result['completed_at']}s)")
        print(f"   blocks sent     : {transfer['blocks_sent']} "
              f"({transfer['retransmits']} retransmits)")
        print(f"   duplicates      : {transfer['duplicate_blocks']}")
        print(f"   repair rounds   : {transfer['repair_rounds']}")
        print(f"   sender repairs  : {transfer['repairs_served']}")
    print("\nOn a connected grid NACK repair alone completes the object; "
          "custody is for the partitions `-p duty=0.6` puts in its way "
          "(`python -m repro campaign run dtn` sweeps both).")


if __name__ == "__main__":
    main()
