"""Hierarchical interest propagation (clustered and rendezvous modes).

Flat directed diffusion floods every interest to every node, so control
traffic grows with N even when tasks are local.  This package bounds
that cost two ways while leaving the paper's data path untouched:

* **clustered** — a seed-deterministic cluster-head election
  (degree-scored one-hop announcements); heads relay interests promptly
  while members defer-and-cancel under counter-based suppression.
  Crashed heads age out and neighborhoods re-elect automatically.
* **rendezvous** — interest key-attributes hash (stable splitmix64) to
  grid regions; interests and exploratory data travel geographic
  corridors and meet at O(region) nodes.

Positive reinforcement still carves flat unicast paths exactly as in
the paper: the hierarchy shapes *discovery*, never *delivery*.  With no
policy installed the core is bit-identical to the classic stack.
"""

from repro.hierarchy.election import (
    CLUSTER_CONTROL_KIND,
    CONTROL_FILTER_PRIORITY,
    ClusterService,
    install_control_filter,
)
from repro.hierarchy.hashing import (
    RegionMap,
    point_segment_distance,
    splitmix64,
    stable_hash64,
)
from repro.hierarchy.manager import (
    HierarchyParams,
    HierarchyRuntime,
    install_hierarchy,
)
from repro.hierarchy.policy import (
    ClusteredPolicy,
    ForwardPolicy,
    RendezvousPolicy,
)

__all__ = [
    "CLUSTER_CONTROL_KIND",
    "CONTROL_FILTER_PRIORITY",
    "ClusterService",
    "ClusteredPolicy",
    "ForwardPolicy",
    "HierarchyParams",
    "HierarchyRuntime",
    "RegionMap",
    "RendezvousPolicy",
    "install_control_filter",
    "install_hierarchy",
    "point_segment_distance",
    "splitmix64",
    "stable_hash64",
]
