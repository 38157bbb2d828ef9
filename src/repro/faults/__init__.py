"""Deterministic fault injection and resilience verification.

The paper's robustness story — soft state plus periodic exploratory
messages "adjust gradients in the case of network changes (due to node
failure, energy depletion, or mobility)" — becomes a measured property
here:

* :mod:`repro.faults.plan` — the FaultPlan DSL: typed, schedulable,
  JSON-round-trippable fault actions;
* :mod:`repro.faults.overlay` — link cuts/partitions as a propagation
  overlay honoring the radio fast-path epoch contract;
* :mod:`repro.faults.engine` — executes a plan against a
  SensorNetwork, seed-reproducibly, recording a timeline;
* :mod:`repro.faults.monitors` — online invariant monitors (forwarding
  loops, gradient bounds, reinforcement uniqueness, reboot coherence);
* :mod:`repro.faults.metrics` — delivery-ratio and time-to-repair
  accounting;
* :mod:`repro.faults.scenarios` — the resilience grid, its builtin
  plans, the fault harness every scenario preset arms
  (:mod:`repro.shard.scenario`), and the ``timesync`` preset's RBS
  workload.
"""

from repro.faults.engine import FaultEngine
from repro.faults.metrics import ResilienceProbe
from repro.faults.monitors import (
    InvariantViolationError,
    MonitorSuite,
    Violation,
)
from repro.faults.overlay import FaultOverlayPropagation
from repro.faults.plan import (
    ACTION_KINDS,
    ClockSkew,
    EnergyBrownout,
    FaultPlan,
    FragmentCorruption,
    LinkFlap,
    NodeCrash,
    Partition,
    PlanError,
)
from repro.faults.scenarios import builtin_names, builtin_plan

__all__ = [
    "ACTION_KINDS",
    "ClockSkew",
    "EnergyBrownout",
    "FaultEngine",
    "FaultOverlayPropagation",
    "FaultPlan",
    "FragmentCorruption",
    "InvariantViolationError",
    "LinkFlap",
    "MonitorSuite",
    "NodeCrash",
    "Partition",
    "PlanError",
    "ResilienceProbe",
    "Violation",
    "builtin_names",
    "builtin_plan",
]
