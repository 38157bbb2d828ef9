"""Seed-deterministic cluster-head election.

Every node periodically broadcasts a one-hop CONTROL announcement with
its election score and current head claim (CCIC-WSN-style, adapted to
diffusion's message vocabulary).  A node claims headship when its score
is the maximum over itself and every live neighbor; members adopt the
best-scoring neighbor that claims headship.  Scores combine the
observed degree and a stable splitmix64 tiebreak — both deterministic
given the experiment seed, so the same seed elects the same heads.

There is no explicit resignation protocol: when a head crashes its
announcements simply stop, it ages out of every neighbor table after
``head_timeout``, and each neighborhood re-elects on its next
announcement tick.  The PR-5 fault path (``NodeCrash`` + ``reboot``)
exercises exactly this; a rebooted node restarts with empty soft state
and re-enters the election like a fresh deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.filter_api import GRADIENT_FILTER_PRIORITY
from repro.core.messages import Message, make_control, make_interest
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.sim.metrics import current_registry

from repro.hierarchy.hashing import splitmix64

#: hierarchy control filters sit above the gradient core and above the
#: GEAR filter, so announcements are consumed before anything else runs.
CONTROL_FILTER_PRIORITY = GRADIENT_FILTER_PRIORITY + 60

#: CONTROL_KIND value tagging cluster announcements.
CLUSTER_CONTROL_KIND = "cluster"

#: folded into every node id before the score tiebreak is drawn.
TIEBREAK_MIX = splitmix64(0)

#: members announce this many times slower than heads once bootstrap is
#: done.  Post-bootstrap scores are static, so member announcements only
#: serve slow liveness; head announcements carry the claims everyone's
#: allegiance hangs on and keep the fast failure-detection cadence.
#: Liveness horizons scale the same way: a neighbor claiming headship is
#: expected at the fast cadence, anyone else at the slow one.
MEMBER_ANNOUNCE_FACTOR = 4.0


@dataclass
class NeighborView:
    """What one announcement told us about a neighbor."""

    score: int
    head_claim: int
    heard_at: float


class ClusterService:
    """Election state machine for one node.

    All randomness (announce phase and period jitter) comes from the
    per-node ``rng`` stream handed in by the installer — never from the
    global ``random`` module — so runs replay bit-identically.
    """

    def __init__(self, node, rng, params) -> None:
        self.node = node                      # DiffusionNode
        self.rng = rng
        self.params = params
        self.neighbors: Dict[int, NeighborView] = {}
        self.announces_sent = 0
        self.reelections = 0
        #: the score this node last put on the air.  Elections compare
        #: announced-vs-announced: pitting a freshly computed local
        #: score (with an up-to-the-second degree) against neighbors'
        #: announced ones would make nearly every node a "local
        #: maximum" whenever degrees are still climbing.
        self.announced_score: Optional[int] = None
        self._last_head: Optional[int] = None
        self._announce_event = None
        #: False between stop() and start() — a crashed node keeps its
        #: stale self-belief, but it is not part of the hierarchy.
        self.active = False
        # current_head() runs on every forwarding decision; memoize it
        # briefly (invalidated by every announcement heard).
        self._head_cache: Optional[Tuple[float, int]] = None
        registry = current_registry()
        registry.counter("hierarchy.announces", lambda: self.announces_sent)
        registry.counter("hierarchy.reelections", lambda: self.reelections)
        # The tiebreak decorrelates head placement from node numbering.
        # Announced, never recomputed by receivers.
        self._tiebreak = splitmix64(node.node_id ^ TIEBREAK_MIX) & 0xFFFF

    #: quick announce rounds after start/reboot (at a quarter of the
    #: steady period) so scores and claims converge before the network
    #: has cycled through several interest refreshes.
    BOOTSTRAP_ROUNDS = 2

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        self._rounds = 0
        self.active = True
        delay = self.rng.uniform(0.0, self.params.announce_jitter)
        self._announce_event = self.node.sim.schedule(
            delay, self._announce_tick, name="hierarchy.announce"
        )

    def stop(self) -> None:
        self.active = False
        if self._announce_event is not None:
            self._announce_event.cancel()
            self._announce_event = None

    def restart(self) -> None:
        """Power-cycle semantics: neighbor tables are soft state."""
        self.stop()
        self.neighbors.clear()
        self._head_cache = None
        self._last_head = None
        self.announced_score = None
        self.start()

    # -- scoring and election ------------------------------------------

    def score(self) -> int:
        """This node's announced election score.

        Degree dominates (a well-connected head covers more members per
        announcement), then the stable tiebreak.
        """
        # Degree counts every neighbor ever heard, not just live ones:
        # a live-only count drops whenever an announcement is lost to a
        # collision, and any score wobble re-runs elections somewhere.
        # Ever-heard degree is monotone, so scores settle after the
        # first full announce round (cleared only by reboot).
        degree = len(self.neighbors)
        return (min(degree, 0xFFF) << 16) | self._tiebreak

    def _live(self, now: float) -> Dict[int, NeighborView]:
        base = self.params.head_timeout
        member = base * MEMBER_ANNOUNCE_FACTOR
        return {
            nid: view
            for nid, view in self.neighbors.items()
            # Expect announcements at the cadence the sender's role
            # implies: heads announce fast, members slow.
            if now - view.heard_at
            <= (base if view.head_claim == nid else member)
        }

    def current_head(self) -> int:
        """The node this one currently follows (itself when head).

        Elections are *sticky*: an adopted head is followed for as long
        as it stays live and keeps claiming headship, and a node that
        claimed headship keeps it unless a live neighbor with a strictly
        higher announced score also claims it (then the weaker head
        resigns, merging adjacent clusters).  Scores — which wobble as
        observed degree climbs and announcements get lost — therefore
        only decide *elections*, never day-to-day allegiance; without
        stickiness every wobble is a re-election and every re-election
        costs control traffic.  Ties on score break toward the higher
        node id, which every node resolves identically from announced
        values alone.
        """
        now = self.node.sim.now
        cached = self._head_cache
        if cached is not None and cached[0] > now:
            return cached[1]
        live = self._live(now)
        head = self._elect(live)
        valid_until = now + min(1.0, self.params.announce_interval / 4.0)
        self._head_cache = (valid_until, head)
        return head

    def _elect(self, live: Dict[int, NeighborView]) -> int:
        my_id = self.node.node_id
        my_score = (
            self.announced_score
            if self.announced_score is not None
            else self.score()
        )
        mine = (my_score, my_id)
        claimed = [
            (view.score, nid)
            for nid, view in live.items()
            if view.head_claim == nid
        ]
        incumbent = self._last_head
        if incumbent == my_id:
            # Sitting head: resign only to a strictly stronger live
            # claimant (cluster merge), never to a score wobble.
            challenger = max(claimed, default=None)
            return challenger[1] if challenger and challenger > mine else my_id
        if incumbent is not None:
            view = live.get(incumbent)
            if view is not None and view.head_claim == incumbent:
                return incumbent  # alive and still claiming: stick
        # Election: local maximum claims headship, everyone else adopts
        # the strongest self-declared head in earshot (before any claims
        # arrive — cold start — the local maximum by announced score).
        best = max(
            ((view.score, nid) for nid, view in live.items()),
            default=None,
        )
        if best is None or mine >= best:
            return my_id  # isolated, or the local maximum
        return max(claimed)[1] if claimed else best[1]

    @property
    def is_head(self) -> bool:
        return self.current_head() == self.node.node_id

    # -- announcements -------------------------------------------------

    def _announce_tick(self) -> None:
        node = self.node
        now = node.sim.now
        self._head_cache = None
        self.announced_score = self.score()
        head = self.current_head()
        if self._last_head is not None and head != self._last_head:
            self.reelections += 1
            node.trace.emit(
                now,
                "hierarchy.election",
                node=node.node_id,
                head=head,
                previous=self._last_head,
            )
            # Refresh only on *repair* — the old head stopped announcing
            # (crashed or moved away) and this node won the re-election.
            # Cold-start merges and adoptions change heads too, but the
            # old head is still alive then and its backbone still
            # stands; re-flooding on those would melt the channel.
            if (
                head == node.node_id
                and self._last_head != node.node_id
                and self._last_head not in self._live(now)
            ):
                self._refresh_interests(now)
        self._last_head = head
        attrs = (
            AttributeVector.builder()
            .actual(Key.CONTROL_KIND, CLUSTER_CONTROL_KIND)
            .actual(Key.CLUSTER_SCORE, self.announced_score)
            .actual(Key.CLUSTER_HEAD, head)
            .build()
        )
        message = make_control(
            attrs=attrs,
            origin=node.node_id,
            header_bytes=node.config.header_bytes,
        )
        node._transmit(message)
        self.announces_sent += 1
        self._rounds += 1
        interval = self.params.announce_interval
        if self._rounds <= self.BOOTSTRAP_ROUNDS:
            interval /= 4.0
        elif head != node.node_id:
            interval *= MEMBER_ANNOUNCE_FACTOR
        period = interval + self.rng.uniform(
            0.0, self.params.announce_jitter
        )
        self._announce_event = node.sim.schedule(
            period, self._announce_tick, name="hierarchy.announce"
        )

    def _refresh_interests(self, now: float) -> None:
        """A freshly elected head re-floods the demanded interests it
        knows, repairing the backbone without waiting for sink refresh
        (this is what makes post-crash repair fast)."""
        node = self.node
        for entry in node.gradients.entries_with_demand(now):
            message = make_interest(
                attrs=entry.attrs,
                origin=node.node_id,
                header_bytes=node.config.header_bytes,
            )
            node._note_origin(message)
            node._run_pipeline(message)

    # -- reception (wired through the control filter) ------------------

    def on_announcement(self, message: Message) -> None:
        src = message.last_hop
        if src is None or src == self.node.node_id:
            return
        score = message.attrs.value_of(Key.CLUSTER_SCORE)
        head_claim = message.attrs.value_of(Key.CLUSTER_HEAD)
        if score is None or head_claim is None:
            return
        self.neighbors[src] = NeighborView(
            score=int(score),
            head_claim=int(head_claim),
            heard_at=self.node.sim.now,
        )
        self._head_cache = None


def install_control_filter(node, service: ClusterService):
    """Consume cluster announcements before any other processing.

    The filter's formal matches only messages carrying
    ``control_kind == "cluster"``, so data-plane traffic never enters
    the callback; announcements terminate here (strictly one hop).
    """
    attrs = (
        AttributeVector.builder()
        .eq(Key.CONTROL_KIND, CLUSTER_CONTROL_KIND)
        .build()
    )

    def callback(message, handle):
        service.on_announcement(message)

    return node.add_filter(
        attrs=attrs,
        priority=CONTROL_FILTER_PRIORITY,
        callback=callback,
        name="hierarchy-control",
    )
