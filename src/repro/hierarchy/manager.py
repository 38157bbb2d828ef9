"""Install a propagation mode onto a built network.

The hierarchy layer is strictly additive: :func:`install_hierarchy`
walks an existing :class:`~repro.testbed.network.SensorNetwork`, hands
each node a per-node RNG stream (``hierarchy:<id>`` off the network's
seed sequence — the same labeled-stream discipline as the MAC and
diffusion layers), and attaches the policy the mode calls for.  Flat
mode attaches nothing at all, which is what keeps it bit-identical to
the classic stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import PROPAGATION_MODES
from repro.naming.keys import Key
from repro.sim.rng import make_rng

from repro.hierarchy.election import ClusterService, install_control_filter
from repro.hierarchy.hashing import RegionMap
from repro.hierarchy.policy import (
    ClusteredPolicy,
    ForwardPolicy,
    RendezvousPolicy,
)


@dataclass
class HierarchyParams:
    """Tunables for both hierarchical modes.

    Clustered:
        announce_interval/announce_jitter: cadence of the one-hop
            election announcements.  Announcements are the standing
            cost of clustering, so the interval should sit at or above
            the interest interval.
        head_timeout: seconds without an announcement before a neighbor
            (head or not) is presumed dead — the re-election latency
            knob.  ``None`` (default) derives ``2.5 x
            announce_interval + announce_jitter``: losing a single
            announcement to a collision must never age a live neighbor
            out, or elections churn and every churn re-floods.
        member_announce_factor: members announce this many times slower
            than heads once bootstrap is done.  Post-bootstrap scores
            are static, so member announcements only serve slow
            liveness; head announcements carry the claims everyone's
            allegiance hangs on and keep the fast failure-detection
            cadence.  Liveness horizons scale the same way: a neighbor
            claiming headship is expected at the fast cadence, anyone
            else at the slow one.
        cover_threshold: duplicate copies (beyond the first) a member
            must hear to cancel its deferred fallback rebroadcast.
        fallback_window: (low, high) seconds of deferral jitter.  Wide
            enough for head rebroadcasts to land first, short next to
            protocol timers.
        head_refresh: a freshly elected head re-floods the interests it
            knows are still demanded (fast post-crash repair).
        refresh_damping: seconds a node withholds re-flooding an
            interest whose attrs it already forwarded (the paper's
            interest aggregation).  ``None`` derives ``0.6 x
            gradient_timeout`` — late enough to halve refresh floods,
            early enough that downstream gradients never expire.  0
            disables.
        election_salt: folds into every node's score tiebreak,
            re-randomizing head placement without changing node ids.
        energy_weight: scales the energy term of the election score
            when an ``energy_of`` callable is supplied.

    Rendezvous:
        regions: the deployment bounding box is carved into
            ``regions x regions`` cells.
        rendezvous_key: the attribute key whose value is hashed to a
            region (default ``Key.TYPE``, the sensor-type tag).
        corridor: half-width in meters of the geographic forwarding
            band between a message's origin and its target region.
        region_salt: seeds the value->region hash.
    """

    announce_interval: float = 10.0
    announce_jitter: float = 2.0
    head_timeout: Optional[float] = None
    member_announce_factor: float = 4.0
    cover_threshold: int = 1
    fallback_window: Tuple[float, float] = (0.3, 0.9)
    head_refresh: bool = True
    refresh_damping: Optional[float] = None
    election_salt: int = 0
    energy_weight: float = 1.0
    regions: int = 4
    rendezvous_key: int = int(Key.TYPE)
    corridor: float = 30.0
    region_salt: int = 0

    @classmethod
    def from_dict(cls, raw: Optional[Dict[str, Any]]) -> "HierarchyParams":
        """Build from a plain (JSON-borne) dict, ignoring unknown keys
        so campaign param grids can carry extra entries."""
        raw = raw or {}
        if not isinstance(raw, dict):
            raise ValueError(
                f"hierarchy params must be an object, got {raw!r}"
            )
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in raw.items() if k in known}
        if "fallback_window" in kwargs:
            low, high = kwargs["fallback_window"]
            kwargs["fallback_window"] = (float(low), float(high))
        return cls(**kwargs)

    @property
    def effective_head_timeout(self) -> float:
        if self.head_timeout is not None:
            return self.head_timeout
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


def attach_node(
    node,
    mode: str,
    rng,
    params: Optional[HierarchyParams] = None,
    topology=None,
    region_map: Optional[RegionMap] = None,
    energy_of: Optional[Callable[[int], float]] = None,
) -> Tuple[Optional[ForwardPolicy], Optional[ClusterService]]:
    """Wire one DiffusionNode into a propagation mode.

    The building block :func:`install_hierarchy` loops over; exposed so
    unit tests (and IdealNetwork rigs) can attach nodes by hand.
    """
    if mode not in PROPAGATION_MODES:
        raise ValueError(
            f"propagation mode must be one of {PROPAGATION_MODES}, got {mode!r}"
        )
    if mode == "flat":
        return None, None
    params = params or HierarchyParams()
    if mode == "clustered":
        service = ClusterService(node, rng, params, energy_of=energy_of)
        install_control_filter(node, service)
        policy = ClusteredPolicy(node, service, rng, params)
        node.forward_policy = policy
        service.start()
        return policy, service
    # rendezvous
    if topology is None:
        raise ValueError("rendezvous mode needs the topology")
    if region_map is None:
        region_map = RegionMap.from_topology(
            topology, params.regions, params.region_salt
        )
    policy = RendezvousPolicy(node, topology, region_map, params)
    node.forward_policy = policy
    return policy, None


def install_hierarchy(
    network,
    mode: Optional[str] = None,
    params: Optional[Dict[str, Any]] = None,
    energy_of: Optional[Callable[[int], float]] = None,
    seed: Optional[int] = None,
) -> HierarchyRuntime:
    """Attach a propagation mode to every node of a ``SensorNetwork``.

    ``mode`` defaults to ``network.config.propagation_mode``.  Works on
    subset builds (sharded scenarios): only owned nodes get services,
    so per-shard counters merge by summation.  ``seed`` only matters
    for networks without a seed sequence (IdealNetwork rigs).
    """
    if mode is None:
        mode = network.config.propagation_mode
    hp = HierarchyParams.from_dict(params)
    runtime = HierarchyRuntime(mode=mode, params=hp)
    if mode == "flat":
        return runtime
    region_map = None
    if mode == "rendezvous":
        region_map = RegionMap.from_topology(
            network.topology, hp.regions, hp.region_salt
        )
        runtime.region_map = region_map
    seeds = getattr(network, "seeds", None)
    for node_id in network.node_ids():
        node = network.node(node_id)
        if seeds is not None:
            rng = seeds.stream(f"hierarchy:{node_id}")
        else:
            rng = make_rng(seed if seed is not None else 1, f"hierarchy:{node_id}")
        policy, service = attach_node(
            node,
            mode,
            rng,
            params=hp,
            topology=getattr(network, "topology", None),
            region_map=region_map,
            energy_of=energy_of,
        )
        if policy is not None:
            runtime.policies[node_id] = policy
        if service is not None:
            runtime.services[node_id] = service
    return runtime
