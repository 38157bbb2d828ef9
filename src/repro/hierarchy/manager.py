"""Install a propagation mode onto a built network.

The hierarchy layer is strictly additive: :func:`install_hierarchy`
walks an existing :class:`~repro.testbed.network.SensorNetwork`, hands
each node a per-node RNG stream (``hierarchy:<id>`` off the network's
seed sequence — the same labeled-stream discipline as the MAC and
diffusion layers), and attaches the policy the mode calls for.  Flat
mode attaches nothing at all, which is what keeps it bit-identical to
the classic stack.  :class:`HierarchyParams` holds what a run or a
campaign grid varies; every other tunable of the two modes is a
constant of :mod:`repro.hierarchy.election` or
:mod:`repro.hierarchy.policy`, next to the code that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import config_from_object


from repro.hierarchy.election import ClusterService, install_control_filter
from repro.hierarchy.hashing import RegionMap
from repro.hierarchy.policy import (
    ClusteredPolicy,
    ForwardPolicy,
    RendezvousPolicy,
)

#: the propagation modes :func:`install_hierarchy` knows.
PROPAGATION_MODES = ("flat", "clustered", "rendezvous")


@dataclass
class HierarchyParams:
    """Tunables for both hierarchical modes.

    Clustered:
        announce_interval/announce_jitter: cadence of the one-hop
            election announcements.  Announcements are the standing
            cost of clustering, so the interval should sit at or above
            the interest interval.
        refresh_damping: seconds a node withholds re-flooding an
            interest whose attrs it already forwarded (the paper's
            interest aggregation).  ``None`` derives ``0.6 x
            gradient_timeout`` — late enough to halve refresh floods,
            early enough that downstream gradients never expire.  0
            disables.

    Rendezvous:
        regions: the deployment bounding box is carved into
            ``regions x regions`` cells.
    """

    announce_interval: float = 10.0
    announce_jitter: float = 2.0
    refresh_damping: Optional[float] = None
    regions: int = 4

    @property
    def head_timeout(self) -> float:
        """Seconds without an announcement before a neighbor (head or
        not) is presumed dead — the re-election latency.  Losing a
        single announcement to a collision must never age a live
        neighbor out, or elections churn and every churn re-floods."""
        return 2.5 * self.announce_interval + self.announce_jitter


@dataclass
class HierarchyRuntime:
    """Handle over everything one install created (one per network)."""

    mode: str
    params: HierarchyParams
    services: Dict[int, ClusterService] = field(default_factory=dict)
    policies: Dict[int, ForwardPolicy] = field(default_factory=dict)
    region_map: Optional[RegionMap] = None

    def head_nodes(self) -> List[int]:
        """Nodes currently claiming cluster headship (clustered mode).

        Stopped services (crashed nodes) are excluded — a dead node's
        stale self-belief is not part of the hierarchy.
        """
        return sorted(
            nid
            for nid, service in self.services.items()
            if service.active and service.is_head
        )

    def head_of(self, node_id: int) -> Optional[int]:
        service = self.services.get(node_id)
        return None if service is None else service.current_head()

    def suppressed(self) -> Dict[str, int]:
        totals = {"interest": 0, "exploratory": 0}
        for policy in self.policies.values():
            for kind, count in getattr(policy, "suppressed", {}).items():
                totals[kind] += count
        return totals

    def counters(self) -> Dict[str, int]:
        """Merge-friendly (ints sum across shards) summary counters."""
        suppressed = self.suppressed()
        return {
            "heads": len(self.head_nodes()),
            "announces": sum(
                s.announces_sent for s in self.services.values()
            ),
            "reelections": sum(
                s.reelections for s in self.services.values()
            ),
            "suppressed_interests": suppressed["interest"],
            "suppressed_exploratory": suppressed["exploratory"],
            "fallbacks_fired": sum(
                getattr(p, "fallbacks_fired", 0)
                for p in self.policies.values()
            ),
        }


def install_hierarchy(
    network, mode: str, params: Optional[Dict[str, Any]] = None
) -> HierarchyRuntime:
    """Attach propagation ``mode`` to every node of a ``SensorNetwork``:
    flat attaches nothing; clustered gives each node an election service,
    its control filter and a :class:`ClusteredPolicy`; rendezvous a
    :class:`RendezvousPolicy` over one region map.  Works on subset
    builds (sharded scenarios): only owned nodes get services, so
    per-shard counters merge by summation."""
    if mode not in PROPAGATION_MODES:
        raise ValueError(
            f"propagation mode must be one of {PROPAGATION_MODES}, got {mode!r}"
        )
    hp = config_from_object(HierarchyParams, params, "hierarchy params")
    runtime = HierarchyRuntime(mode=mode, params=hp)
    if mode == "flat":
        return runtime
    if mode == "rendezvous":
        runtime.region_map = RegionMap.from_topology(
            network.topology, hp.regions
        )
    for node_id in network.node_ids():
        node = network.node(node_id)
        if mode == "clustered":
            rng = network.seeds.stream(f"hierarchy:{node_id}")
            service = ClusterService(node, rng, hp)
            install_control_filter(node, service)
            policy: ForwardPolicy = ClusteredPolicy(node, service, rng, hp)
            node.forward_policy = policy
            service.start()
            runtime.services[node_id] = service
        else:
            policy = RendezvousPolicy(
                node, network.topology, runtime.region_map
            )
            node.forward_policy = policy
        runtime.policies[node_id] = policy
    return runtime
