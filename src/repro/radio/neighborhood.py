"""Neighborhood index: the radio layer's fast path.

The reference scan (:class:`~repro.radio.reference.ReferenceChannel`)
pays O(N) per fragment (every attached modem is probed for audibility)
and O(N) per carrier-sense query (every modem is scanned for an audible
transmitter), which makes dense-traffic runs quadratic in network size.
This module caches what those scans recompute:

* **audibility sets** — per sender, the nodes whose link PRR *can* be
  non-zero during the current propagation epoch (``link_prr_bound > 0``);
* **carrier-sense sets** — per sender, the nodes whose PRR can reach the
  carrier-sense threshold;
* a **per-directed-link PRR memo** holding the exact PRR returned by the
  propagation model plus the absolute time it stays valid.

Correctness contract (see DESIGN.md "Radio fast path"): the sets are
*supersets* built from ``link_prr_bound`` and every use re-checks the
exact memoized PRR, so channel verdicts are bit-identical to the
reference scan.  Invalidation is two-tier:

* the model's ``prr_epoch()`` token changes whenever a link *bound* may
  have changed (topology moves, table edits) — everything is dropped;
* per-link windows expire on their own (Gilbert–Elliot state flips),
  which a global counter could not express because flips are discovered
  lazily at query time.

Static topologies therefore compute each set exactly once per run.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple


def supports_fast_path(model) -> bool:
    """Can ``model`` back a :class:`NeighborhoodIndex`?

    True when the model implements the fast-path protocol
    (:class:`~repro.radio.propagation.FastPathPropagation`) end to end —
    a Gilbert–Elliot overlay on an unsupported base model answers
    ``prr_epoch`` with AttributeError, which is how delegation failures
    surface here.
    """
    if not all(
        hasattr(model, name)
        for name in ("prr_epoch", "link_prr_bound", "link_prr_window")
    ):
        return False
    try:
        model.prr_epoch()
    except AttributeError:
        return False
    return True


class NeighborhoodIndex:
    """Cached audibility / carrier-sense sets plus a windowed PRR memo.

    Membership (which nodes exist) is pushed in by the channel via
    :meth:`add_node` / :meth:`remove_node`; link data is pulled lazily
    from the propagation model and dropped wholesale whenever its
    ``prr_epoch()`` token changes.
    """

    def __init__(self, propagation, carrier_threshold: float) -> None:
        if not supports_fast_path(propagation):
            raise ValueError(
                f"{type(propagation).__name__} does not implement the "
                "radio fast-path protocol (prr_epoch/link_prr_bound/"
                "link_prr_window); run it on "
                "repro.radio.reference.ReferenceChannel instead"
            )
        self.propagation = propagation
        self.carrier_threshold = carrier_threshold
        # Attach order, preserved so reception scheduling walks receivers
        # in exactly the order the reference modem scan would.
        self._members: List[int] = []
        self._epoch: object = propagation.prr_epoch()
        self._audible: Dict[int, List[int]] = {}
        #: lazily built carrier-sense candidate sets, exposed (like
        #: :attr:`prr_memo`) for the channel's carrier-scan loop: after
        #: :meth:`sync`, present entries may be read directly; misses
        #: must go through :meth:`carrier_candidates`.
        self.carrier_map: Dict[int, Set[int]] = {}
        #: the windowed PRR memo, exposed for the channel's hot loops:
        #: after calling :meth:`sync`, a ``(src, dst)`` entry whose
        #: expiry exceeds ``now`` may be read directly (saving a method
        #: call per link); misses must go through :meth:`link_prr`.
        self.prr_memo: Dict[Tuple[int, int], Tuple[float, float]] = {}
        # Statistics (channelbench reports these).
        self.rebuilds = 0
        self.set_builds = 0
        self.memo_hits = 0
        self.memo_misses = 0

    # -- membership ---------------------------------------------------------

    def add_node(self, node_id: int) -> None:
        self._members.append(node_id)
        # A new node must appear in every other sender's sets; attaching
        # before any set was built (network construction) costs nothing.
        self._reset()

    def remove_node(self, node_id: int) -> None:
        self._members.remove(node_id)
        self._reset()

    def _reset(self) -> None:
        if not (self._audible or self.carrier_map or self.prr_memo):
            return
        self._audible.clear()
        self.carrier_map.clear()
        self.prr_memo.clear()
        self.rebuilds += 1

    # -- epoch sync ---------------------------------------------------------

    def sync(self) -> None:
        """Drop every cache if the propagation epoch moved on.

        The channel calls this once per operation (transmission,
        carrier-sense query) and may then read :attr:`prr_memo`
        directly; the query methods below also call it, so external
        callers holding no memo references never need to.
        """
        epoch = self.propagation.prr_epoch()
        if epoch != self._epoch:
            self._epoch = epoch
            self._reset()

    # -- queries ------------------------------------------------------------

    def audible_from(self, src: int) -> List[int]:
        """Nodes that may hear ``src`` this epoch, in attach order."""
        self.sync()
        audible = self._audible.get(src)
        if audible is None:
            bound = self.propagation.link_prr_bound
            audible = [
                dst for dst in self._members
                if dst != src and bound(src, dst) > 0.0
            ]
            self._audible[src] = audible
            self.set_builds += 1
        return audible

    def carrier_candidates(self, src: int) -> Set[int]:
        """Nodes where ``src``'s carrier may exceed the sense threshold."""
        self.sync()
        candidates = self.carrier_map.get(src)
        if candidates is None:
            bound = self.propagation.link_prr_bound
            candidates = {
                dst for dst in self._members
                if dst != src and bound(src, dst) >= self.carrier_threshold
            }
            self.carrier_map[src] = candidates
            self.set_builds += 1
        return candidates

    def link_prr(self, src: int, dst: int, now: float) -> float:
        """Exact ``propagation.link_prr(src, dst, now)``, memoized while
        the link's validity window lasts (simulation time is monotone,
        so a cached value only needs its expiry checked)."""
        self.sync()
        key = (src, dst)
        cached = self.prr_memo.get(key)
        if cached is not None and now < cached[1]:
            self.memo_hits += 1
            return cached[0]
        self.memo_misses += 1
        prr, expires = self.propagation.link_prr_window(src, dst, now)
        self.prr_memo[key] = (prr, expires)
        return prr


class BoundaryIndex:
    """Cross-cut audibility for a spatial partition of the deployment.

    Where :class:`NeighborhoodIndex` caches *who hears whom* inside one
    channel, this answers the sharded kernel's question: given a cut of
    the node set into *owned* and *foreign* halves, which owned nodes
    can be heard across the cut (their transmissions must be exported),
    and which foreign transmitters have owned listeners (their ghosts
    must be admitted).  Everything is derived from ``link_prr_bound``,
    so the sets are supersets and every actual delivery still re-checks
    the exact PRR — identical to the fast-path correctness contract.

    Invalidation mirrors :class:`NeighborhoodIndex`: all sets drop when
    the model's ``prr_epoch()`` token moves (mobility crossing the cut
    is just a topology version bump).  When the model offers an
    ``audible_reach()`` spatial bound and positions are available, the
    rebuild buckets foreign nodes into reach-sized grid cells and probes
    only geometrically plausible pairs — O(boundary), not
    O(owned x foreign), which is what keeps 10k-node sharded rebuilds
    affordable under mobility.
    """

    def __init__(
        self,
        propagation,
        owned: Iterable[int],
        foreign: Iterable[int],
        topology=None,
    ) -> None:
        if not supports_fast_path(propagation):
            raise ValueError(
                f"{type(propagation).__name__} does not implement the "
                "radio fast-path protocol required for boundary queries"
            )
        self.propagation = propagation
        self.owned = sorted(owned)
        self.foreign = sorted(foreign)
        overlap = set(self.owned) & set(self.foreign)
        if overlap:
            raise ValueError(f"cut is not a partition: {sorted(overlap)}")
        self.topology = (
            topology if topology is not None
            else getattr(propagation, "topology", None)
        )
        self._epoch: object = None
        self._built = False
        # owned src -> foreign listeners, and foreign src -> owned
        # listeners; absent key = nothing audible across the cut.
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        # Statistics (scalebench reports these).
        self.rebuilds = 0
        self.pair_checks = 0

    # -- epoch sync ---------------------------------------------------------

    def sync(self) -> None:
        """Rebuild the cross-cut sets if the propagation epoch moved."""
        epoch = self.propagation.prr_epoch()
        if self._built and epoch == self._epoch:
            return
        self._epoch = epoch
        self._rebuild()
        self._built = True

    def _candidate_pairs(self) -> Iterator[Tuple[int, int]]:
        """Geometrically plausible (owned, foreign) pairs.

        Falls back to the full cross product when no spatial bound is
        available (table models, extreme asymmetry).
        """
        reach_fn = getattr(self.propagation, "audible_reach", None)
        reach = reach_fn() if reach_fn is not None else None
        topo = self.topology
        if reach is None or topo is None:
            for o in self.owned:
                for f in self.foreign:
                    yield o, f
            return
        # Cell size = reach, so any audible pair lands in the same or an
        # adjacent cell (planar distance never exceeds effective
        # distance).
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for f in self.foreign:
            pos = topo.position(f)
            key = (int(pos.x // reach), int(pos.y // reach))
            buckets.setdefault(key, []).append(f)
        for o in self.owned:
            pos = topo.position(o)
            cx, cy = int(pos.x // reach), int(pos.y // reach)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for f in buckets.get((cx + dx, cy + dy), ()):
                        yield o, f

    def _rebuild(self) -> None:
        self._out.clear()
        self._in.clear()
        bound = self.propagation.link_prr_bound
        for o, f in self._candidate_pairs():
            self.pair_checks += 1
            if bound(o, f) > 0.0:
                self._out.setdefault(o, []).append(f)
            if bound(f, o) > 0.0:
                self._in.setdefault(f, []).append(o)
        for listeners in self._out.values():
            listeners.sort()
        for listeners in self._in.values():
            listeners.sort()
        self.rebuilds += 1

    # -- queries ------------------------------------------------------------

    def boundary_senders(self) -> Set[int]:
        """Owned nodes some foreign node may hear: their transmissions
        must be exported across the cut."""
        self.sync()
        return set(self._out)

    def boundary_receivers(self) -> Set[int]:
        """Owned nodes that may hear some foreign transmitter."""
        self.sync()
        receivers: Set[int] = set()
        for listeners in self._in.values():
            receivers.update(listeners)
        return receivers

    def listeners_across(self, src: int) -> List[int]:
        """Nodes on the *other* side of the cut that may hear ``src``
        this epoch (sorted).  Empty for interior nodes."""
        self.sync()
        hit = self._out.get(src)
        if hit is not None:
            return hit
        return self._in.get(src, [])
