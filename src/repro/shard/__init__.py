"""Sharded parallel simulation: conservative spatially-partitioned
execution of one trial across cooperating event queues.

The single-queue :class:`~repro.sim.Simulator` tops out around a few
thousand nodes per core-hour; the paper's arguments about dense,
large-scale deployments (Sections 1 and 6) want 10k-node trials.  This
package cuts the deployment into spatial shards
(:mod:`repro.shard.partition`), gives each its own simulator and
channel built for just its owned nodes (:mod:`repro.shard.scenario`),
and runs them in lock-step windows under conservative synchronization
(:mod:`repro.shard.worker`), in one process or one worker process per
shard (:mod:`repro.shard.process`): a shard only advances past a time its
peers have promised not to transmit across the cut before.  Boundary
audibility comes from
:class:`~repro.radio.neighborhood.BoundaryIndex`, so per-round
exchange cost scales with the cut, not the network.

The protocol is exact: outcomes are bit-identical to the single-queue
oracle (:func:`~repro.shard.runner.run_oracle`), which stays the
trusted reference — tests/test_shard_equivalence.py holds the two
paths equal on every supported scenario at 1, 2, and 4 shards, and over
seeds x shard counts under frequent moves.
"""

from repro.shard.partition import grid_partition, partition_nodes
from repro.shard.runner import (
    build_whole,
    merge_outcomes,
    run_oracle,
    run_sharded,
    sync_profile,
)
from repro.shard.scenario import (
    SCENARIOS,
    Scenario,
    ShardNet,
    StackScenario,
    get_scenario,
    scenario_names,
)
from repro.shard.worker import (
    ExportedTx,
    ShardPlan,
    ShardRuntime,
    ShardStats,
    next_horizon,
)

__all__ = [
    "ExportedTx",
    "SCENARIOS",
    "Scenario",
    "ShardNet",
    "ShardPlan",
    "ShardRuntime",
    "ShardStats",
    "StackScenario",
    "build_whole",
    "get_scenario",
    "grid_partition",
    "merge_outcomes",
    "next_horizon",
    "partition_nodes",
    "run_oracle",
    "run_sharded",
    "scenario_names",
    "sync_profile",
]
