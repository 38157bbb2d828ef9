"""Forwarding policies: how interests and exploratory data spread.

:class:`~repro.core.node.DiffusionNode` consults an optional
``forward_policy`` at every rebroadcast decision.  ``None`` (the
default) is flat mode — the paper's network-wide flood, bit-identical
to the classic stack.  The two policies here implement the
hierarchical modes:

* :class:`ClusteredPolicy` — elected cluster heads rebroadcast
  interests immediately; members defer a jittered fallback copy and
  cancel it once enough duplicate copies prove the neighborhood is
  covered (counter-based broadcast suppression).  Coverage is preserved —
  a member whose fallback timer fires before anyone else covers its
  neighborhood still forwards — but the bulk of redundant rebroadcasts
  in dense deployments is elided.
* :class:`RendezvousPolicy` — the interest's rendezvous attribute is
  hashed to a grid region; copies travel a geographic corridor toward
  that region and flood only inside it.  Exploratory data steers the
  same way, so supply and demand meet at O(region) nodes.  Positive
  reinforcement then carves flat unicast paths exactly as in the
  paper — the hierarchy shapes discovery, never delivery.

All deferral jitter draws come from the per-node RNG stream handed in
by the installer, so sharded runs stay bit-identical to the oracle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import BROADCAST, Message
from repro.naming.keys import Key
from repro.sim.metrics import CLASS_LABEL, current_registry

from repro.hierarchy.hashing import RegionMap, point_segment_distance

#: duplicate copies (beyond the first) a member must hear to cancel its
#: deferred fallback rebroadcast.
COVER_THRESHOLD = 1
#: (low, high) seconds of deferral jitter.  Wide enough for head
#: rebroadcasts to land first, short next to protocol timers.
FALLBACK_WINDOW = (0.3, 0.9)
#: the attribute key whose value is hashed to a region (the sensor-type
#: tag).
RENDEZVOUS_KEY = int(Key.TYPE)
#: half-width in meters of the geographic forwarding band between a
#: message's origin and its target region.
CORRIDOR = 30.0


class ForwardPolicy:
    """Flat-mode defaults: every hook reproduces the legacy decision.

    Subclasses override the hooks they care about.  The core calls:

    * :meth:`forward_interest` after processing a first-copy interest —
      return True to rebroadcast now (the flat behavior);
    * :meth:`forward_exploratory` after processing exploratory data,
      with the legacy ``remote_demand`` verdict — False when no local
      interest entry matches it at all;
    * :meth:`note_interest_duplicate` for every cache-suppressed
      duplicate interest;
    * :meth:`shutdown` / :meth:`restart` on node crash / reboot.

    These are the decisions the filter API cannot carry (DESIGN §12).
    """

    #: when True, a received positive reinforcement refreshes a plain
    #: gradient toward the reinforcing neighbor (rendezvous sources
    #: never hear interests, so reinforcement is their demand signal).
    reinforcement_implies_demand = False

    def forward_interest(self, node, message: Message) -> bool:
        return True

    def note_interest_duplicate(self, node, message: Message) -> None:
        pass

    def forward_exploratory(
        self, node, message: Message, remote_demand: bool
    ) -> bool:
        return remote_demand

    def shutdown(self) -> None:
        pass

    def restart(self) -> None:
        pass


def _suppression_counts() -> Dict[str, int]:
    """A policy's suppressed copies by class, each registered as the
    ``hierarchy.suppressed{class=...}`` counter."""
    counts = {"interest": 0, "exploratory": 0}
    registry = current_registry()
    if registry:
        for kind in counts:
            registry.counter(
                "hierarchy.suppressed", lambda kind=kind: counts[kind],
                **{CLASS_LABEL: kind},
            )
    return counts


class ClusteredPolicy(ForwardPolicy):
    """Cluster-head backbone with counter-based member fallback.

    Only interests ride the backbone.  Exploratory data keeps the flat
    demand-gated rule (the inherited :meth:`forward_exploratory`): the
    interest backbone already confines *where* demand gradients exist,
    so the exploratory flood is narrowed for free, and thinning it
    further (defer-and-cancel) measurably cuts the paths a sink can
    reinforce — it hurts delivery without touching control overhead.
    """

    def __init__(self, node, service, rng, params) -> None:
        self.node = node
        self.service = service
        self.rng = rng
        # (kind, message.unique_id) -> [copies_heard, pending_event]
        self._pending: Dict[Tuple[str, Tuple[int, int]], List[Any]] = {}
        # attrs digest -> time this node last rebroadcast a similar
        # interest (the paper's interest aggregation: periodic refreshes
        # of an identical interest need not all be re-flooded, as long
        # as one goes out well inside the downstream gradient timeout).
        self._recent_forward: Dict[Any, float] = {}
        damping = params.refresh_damping
        if damping is None:
            damping = 0.6 * node.config.gradient_timeout
        self.refresh_damping = float(damping)
        self.suppressed = _suppression_counts()
        self.fallbacks_fired = 0
        registry = current_registry()
        if registry:
            registry.counter(
                "hierarchy.fallbacks_fired", lambda: self.fallbacks_fired
            )

    # -- deferral machinery --------------------------------------------

    def _defer(self, kind: str, message: Message, digest=None) -> bool:
        """Schedule a jittered fallback rebroadcast; returns False so the
        core does not transmit now."""
        key = (kind, message.unique_id)
        if key in self._pending:  # pragma: no cover - dedup precedes us
            return False
        low, high = FALLBACK_WINDOW
        copy = message.forwarded_copy(BROADCAST)
        event = self.node.sim.schedule(
            self.rng.uniform(low, high),
            self._fire,
            key,
            copy,
            digest,
            name="hierarchy.fallback",
        )
        self._pending[key] = [1, event]
        return False

    def _fire(self, key, copy: Message, digest=None) -> None:
        # Nobody covered this neighborhood in time: forward after all.
        self._pending.pop(key, None)
        self.fallbacks_fired += 1
        if digest is not None:
            self._recent_forward[digest] = self.node.sim.now
        self.node._transmit(copy)

    def _note_copy(self, kind: str, message: Message) -> None:
        key = (kind, message.unique_id)
        entry = self._pending.get(key)
        if entry is None:
            return
        entry[0] += 1
        if entry[0] > COVER_THRESHOLD:
            entry[1].cancel()
            del self._pending[key]
            self.suppressed[kind] += 1

    # -- hooks ---------------------------------------------------------

    def forward_interest(self, node, message: Message) -> bool:
        if message.last_hop is None:
            return True  # locally originated: always leaves the node
        digest = message.attrs.digest()
        now = node.sim.now
        if self.refresh_damping > 0:
            last = self._recent_forward.get(digest)
            if last is not None and now - last < self.refresh_damping:
                # A similar interest left this node recently; downstream
                # gradients are still far from timing out, so this
                # refresh need not be re-flooded.
                self.suppressed["interest"] += 1
                return False
        if self.service.is_head:
            self._recent_forward[digest] = now
            return True  # the backbone relays promptly, like flat mode
        return self._defer("interest", message, digest)

    def note_interest_duplicate(self, node, message: Message) -> None:
        self._note_copy("interest", message)

    def shutdown(self) -> None:
        for _, event in self._pending.values():
            event.cancel()
        self._pending.clear()
        self.service.stop()

    def restart(self) -> None:
        self._pending.clear()
        self._recent_forward.clear()
        self.service.restart()


class RendezvousPolicy(ForwardPolicy):
    """Hash-to-region dissemination with geographic corridors."""

    reinforcement_implies_demand = True

    def __init__(self, node, topology, region_map: RegionMap) -> None:
        self.node = node
        self.topology = topology
        self.region_map = region_map
        self.suppressed = _suppression_counts()

    def _rendezvous_value(self, message: Message) -> Optional[Any]:
        # Interests carry the key as a formal (EQ), data as an actual;
        # find() accepts either.
        attr = message.attrs.find(RENDEZVOUS_KEY)
        return None if attr is None else attr.value

    def _should_forward(self, message: Message) -> bool:
        value = self._rendezvous_value(message)
        if value is None:
            return True  # no rendezvous key: degenerate to flooding
        if message.last_hop is None:
            return True  # locally originated: always leaves the node
        region = self.region_map.region_of_value(value)
        mine = self.topology.position(self.node.node_id)
        if self.region_map.contains(region, mine.x, mine.y):
            return True  # inside the region: flood (dedup bounds it)
        cx, cy = self.region_map.center(region)
        last = self.topology.position(message.last_hop)
        my_d = (mine.x - cx) ** 2 + (mine.y - cy) ** 2
        last_d = (last.x - cx) ** 2 + (last.y - cy) ** 2
        if my_d >= last_d:
            return False  # no geographic progress toward the region
        # Stay inside the corridor around the origin->region line, so
        # the monotone funnel cannot balloon into a half-network flood.
        origin = self.topology.position(message.origin)
        return (
            point_segment_distance(mine.x, mine.y, origin.x, origin.y, cx, cy)
            <= CORRIDOR
        )

    def _decide(self, kind: str, message: Message) -> bool:
        verdict = self._should_forward(message)
        if not verdict:
            self.suppressed[kind] += 1
        return verdict

    def forward_interest(self, node, message: Message) -> bool:
        return self._decide("interest", message)

    def forward_exploratory(
        self, node, message: Message, remote_demand: bool
    ) -> bool:
        # Gradient trails (demand) extend the rendezvous region back
        # toward each sink; outside both, the corridor rule applies —
        # also to data no local interest matches, which is how supply
        # travels toward a region whose demand it never heard.
        return remote_demand or self._decide("exploratory", message)
