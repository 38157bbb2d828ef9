"""Neighborhood index: the radio layer's fast path.

The reference scan (:class:`~repro.radio.reference.ReferenceChannel`)
pays O(N) per fragment (every attached modem is probed for audibility)
and O(N) per carrier-sense query (every modem is scanned for an audible
transmitter), which makes dense-traffic runs quadratic in network size.
This module caches what those scans recompute:

* **audibility sets** — per sender, the nodes whose link PRR *can* be
  non-zero during the current propagation epoch (``link_prr_bound > 0``);
* **carrier-source sets** — per listener, the members whose PRR *to* it
  can reach the carrier-sense threshold (the transpose of the above at a
  higher bar: carrier sense asks "whom can I hear?", and intersects the
  answer with who is on the air);
* a **per-directed-link PRR memo** holding the exact PRR returned by the
  propagation model plus the absolute time it stays valid.

Correctness contract (see DESIGN.md "Radio fast path"): the sets are
*supersets* built from ``link_prr_bound`` and every use re-checks the
exact memoized PRR, so channel verdicts are bit-identical to the
reference scan.  Invalidation is two-tier:

* the model's ``prr_epoch()`` token changes whenever a link *bound* may
  have changed (topology moves, table edits, fault cuts);
* per-link windows expire on their own (Gilbert–Elliot state flips),
  which a global counter could not express because flips are discovered
  lazily at query time.

Both what a set build looks at and what an epoch change drops are kept
local to the nodes involved whenever the model lets them be:

* **Builds.**  Over a model whose ``audible_reach()`` and ``topology``
  both answer, members are bucketed into reach-sized grid cells
  (:class:`CellBuckets`) and a set build probes only the 3x3 block
  around the sender; a model with no spatial bound
  (``TablePropagation``) gets the scan over every member.
* **The repair rule.**  When the token changes and the model's
  ``moved_since(old_token)`` names the nodes that moved, each mover is
  re-bucketed and loses its own sets; every node bucketed around the
  cell it left or the cell it entered loses its sets — as a sender
  (audibility) and as a listener (carrier sources) alike; and the memo
  entries of links touching the mover go.  Everything else stays.
  Attaching or detaching a node on a warm index is the same repair.
* **The ghost rule.**  Nodes that are not members (a shard's ghost
  transmitters, a detached node whose MAC still listens) have cached
  sets and memo entries too.  They are bucketed by the position they
  were first seen at, so a member moving near one drops that ghost's
  sets; a ghost that itself moves loses its own sets and links, and —
  sitting in no set — disturbs nothing else.
* **The fallback.**  ``moved_since`` answering ``None`` (a
  table edit, a cut or heal, a node placed, an index that fell behind
  the topology's bounded move journal), or no buckets to look senders
  up in: every set, every memo entry and the buckets are dropped.

Static topologies therefore compute each set exactly once per run, and
a moving node costs its two neighbourhoods per move, not the network.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


Cell = Tuple[int, int]


class CellBuckets:
    """Nodes bucketed into square grid cells one audible reach wide.

    Planar distance never exceeds effective distance, so two nodes with
    a non-zero link bound sit in the same or in adjacent cells: the 3x3
    block around a node's cell holds every candidate for its sets.
    """

    def __init__(self, reach: float) -> None:
        self.reach = reach
        self._cells: Dict[Cell, List[int]] = {}
        self._cell_of: Dict[int, Cell] = {}

    def cell_at(self, pos) -> Cell:
        return (int(pos.x // self.reach), int(pos.y // self.reach))

    def cell_of(self, node: int) -> Optional[Cell]:
        return self._cell_of.get(node)

    def place(self, node: int, pos) -> Cell:
        cell = self._cell_of[node] = self.cell_at(pos)
        self._cells.setdefault(cell, []).append(node)
        return cell

    def discard(self, node: int) -> Optional[Cell]:
        """Take ``node`` out; returns the cell it was in, if any."""
        cell = self._cell_of.pop(node, None)
        if cell is not None:
            members = self._cells[cell]
            members.remove(node)
            if not members:
                del self._cells[cell]
        return cell

    def around(self, cell: Cell) -> List[int]:
        """Every node in the 3x3 block of cells centred on ``cell``."""
        cx, cy = cell
        cells = self._cells
        found: List[int] = []
        for x in (cx - 1, cx, cx + 1):
            for y in (cy - 1, cy, cy + 1):
                members = cells.get((x, y))
                if members:
                    found += members
        return found


class NeighborhoodIndex:
    """Cached audibility / carrier-sense sets plus a windowed PRR memo.

    Membership (which nodes exist) is pushed in by the channel via
    :meth:`add_node` / :meth:`remove_node`; link data is pulled lazily
    from the propagation model
    (:class:`~repro.radio.propagation.PropagationModel`) and repaired
    (or, when the model cannot say what changed, dropped wholesale)
    whenever its ``prr_epoch()`` token changes.
    """

    def __init__(self, propagation, carrier_threshold: float) -> None:
        self.propagation = propagation
        self.carrier_threshold = carrier_threshold
        # Member -> attach rank.  Insertion order is attach order, which
        # audibility lists keep so reception scheduling walks receivers
        # in exactly the order the reference modem scan would.
        self._order: Dict[int, int] = {}
        self._attached = 0
        self._epoch: object = propagation.prr_epoch()
        # Members by position, and the senders seen so far that are not
        # members (a shard's ghosts).  Both are built on the first set
        # build after a reset and stay None over a model with no
        # spatial bound.
        self._cells: Optional[CellBuckets] = None
        self._ghosts: Optional[CellBuckets] = None
        self._audible: Dict[int, List[int]] = {}
        #: lazily built carrier-source sets, exposed (like
        #: :attr:`prr_memo`) for the channel's carrier-sense query:
        #: after :meth:`sync`, a present entry may be read directly;
        #: misses must go through :meth:`carrier_sources`.
        self.carrier_sets: Dict[int, Set[int]] = {}
        #: the windowed PRR memo, exposed for the channel's hot loops:
        #: after calling :meth:`sync`, a ``(src, dst)`` entry whose
        #: expiry exceeds ``now`` may be read directly (saving a method
        #: call per link); misses must go through :meth:`link_prr`.
        self.prr_memo: Dict[Tuple[int, int], Tuple[float, float]] = {}
        # Node -> the nodes it shares a memoized link with (either
        # direction, member or not), so one node's entries can be
        # dropped without walking the memo.
        self._memo_peers: Dict[int, Set[int]] = {}
        # Statistics (the perf ledger reports these).
        #: epoch or membership changes that found something cached.
        self.rebuilds = 0
        self.set_builds = 0
        #: ``link_prr_bound`` calls made by those set builds.
        self.bound_probes = 0
        self.memo_hits = 0
        self.memo_misses = 0

    # -- membership ---------------------------------------------------------

    def add_node(self, node_id: int) -> None:
        self._attached += 1
        self._order[node_id] = self._attached
        # A new node must appear in the sets of the senders around it;
        # attaching before any set was built (network construction)
        # costs nothing.
        self._invalidate((node_id,))

    def remove_node(self, node_id: int) -> None:
        del self._order[node_id]
        self._invalidate((node_id,))

    # -- invalidation -------------------------------------------------------

    def sync(self) -> None:
        """Bring the caches up to the propagation epoch.

        The channel calls this once per operation (transmission,
        carrier-sense query) and may then read :attr:`prr_memo` and
        :attr:`carrier_sets` directly; the query methods below also call
        it, so external callers holding no references never need to.
        """
        epoch = self.propagation.prr_epoch()
        if epoch != self._epoch:
            moved = self.propagation.moved_since(self._epoch)
            self._epoch = epoch
            self._invalidate(moved)

    def _invalidate(self, nodes: Optional[Iterable[int]]) -> None:
        """``nodes`` moved, attached or detached; None = anything may
        have changed.  Without buckets there is no telling which senders
        sit near a node, so that drops everything too."""
        if self._audible or self.carrier_sets or self.prr_memo:
            self.rebuilds += 1
        if nodes is None or self._cells is None:
            self._cells = self._ghosts = None
            self._audible.clear()
            self.carrier_sets.clear()
            self.prr_memo.clear()
            self._memo_peers.clear()
        else:
            for node in dict.fromkeys(nodes):
                self._repair(node)

    def _repair(self, node: int) -> None:
        """Drop only what ``node`` can have made stale: its own sets,
        the sets of every sender or listener (member or ghost) bucketed
        around the cell it left and the cell it is in now, and the memo
        entries of links that touch it.  A node that is no member sits
        in no set, so for a ghost that moved, its own sets and links
        are all there is."""
        cells, ghosts = self._cells, self._ghosts
        stale = [node]
        ghosts.discard(node)
        left = cells.discard(node)
        if left is not None:
            stale += cells.around(left) + ghosts.around(left)
        if node in self._order:
            entered = cells.place(
                node, self.propagation.topology.position(node)
            )
            if entered != left:
                stale += cells.around(entered) + ghosts.around(entered)
        for near in stale:
            self._audible.pop(near, None)
            self.carrier_sets.pop(near, None)
        memo, peers = self.prr_memo, self._memo_peers
        for peer in peers.pop(node, ()):
            memo.pop((node, peer), None)
            memo.pop((peer, node), None)
            if peer != node:
                peers[peer].discard(node)

    # -- queries ------------------------------------------------------------

    def _buckets(self) -> Optional[CellBuckets]:
        """Members by cell, bucketed on first use after a reset; None
        over a model that does not bound audibility in space."""
        if self._cells is None:
            reach = self.propagation.audible_reach()
            topology = self.propagation.topology
            if reach is not None and topology is not None:
                cells = CellBuckets(reach)
                for node in self._order:
                    cells.place(node, topology.position(node))
                self._cells, self._ghosts = cells, CellBuckets(reach)
        return self._cells

    def _candidates(self, node: int) -> Iterable[int]:
        """The members ``node``'s sets are picked from: those bucketed
        around it, or all of them when there are no buckets."""
        cells = self._buckets()
        if cells is None:
            near: Iterable[int] = self._order
        else:
            # A node that is no member is remembered by position, so
            # that a member moving nearby finds its sets too.
            ghosts = self._ghosts
            cell = (
                cells.cell_of(node)
                or ghosts.cell_of(node)
                or ghosts.place(node, self.propagation.topology.position(node))
            )
            near = cells.around(cell)
        self.bound_probes += len(near) - (node in self._order)
        return near

    def audible_from(self, src: int) -> List[int]:
        """Nodes that may hear ``src`` this epoch, in attach order."""
        self.sync()
        audible = self._audible.get(src)
        if audible is None:
            bound = self.propagation.link_prr_bound
            audible = [
                dst for dst in self._candidates(src)
                if dst != src and bound(src, dst) > 0.0
            ]
            audible.sort(key=self._order.__getitem__)
            self._audible[src] = audible
            self.set_builds += 1
        return audible

    def carrier_sources(self, dst: int) -> Set[int]:
        """Members whose carrier may exceed the sense threshold at
        ``dst`` this epoch."""
        self.sync()
        sources = self.carrier_sets.get(dst)
        if sources is None:
            bound = self.propagation.link_prr_bound
            sources = {
                src for src in self._candidates(dst)
                if src != dst and bound(src, dst) >= self.carrier_threshold
            }
            self.carrier_sets[dst] = sources
            self.set_builds += 1
        return sources

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
        if cached is None:
            peers = self._memo_peers
            peers.setdefault(src, set()).add(dst)
            peers.setdefault(dst, set()).add(src)
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

    Invalidation rides the same ``prr_epoch()`` token as
    :class:`NeighborhoodIndex`, without the repair: all sets drop when
    it moves (mobility crossing the cut is just a topology version
    bump).  When the model's ``audible_reach()`` and ``topology`` both
    answer, the rebuild buckets foreign nodes into
    reach-sized grid cells (:class:`CellBuckets`) and probes only
    geometrically plausible pairs — O(boundary), not O(owned x foreign),
    which is what keeps 10k-node sharded rebuilds affordable under
    mobility.
    """

    def __init__(
        self,
        propagation,
        owned: Iterable[int],
        foreign: Iterable[int],
    ) -> None:
        self.propagation = propagation
        self.owned = sorted(owned)
        self.foreign = sorted(foreign)
        overlap = set(self.owned) & set(self.foreign)
        if overlap:
            raise ValueError(f"cut is not a partition: {sorted(overlap)}")
        self._epoch: object = None
        self._built = False
        # owned src -> foreign listeners, and foreign src -> owned
        # listeners; absent key = nothing audible across the cut.
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        # Statistics.
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
        reach = self.propagation.audible_reach()
        topo = self.propagation.topology
        if reach is None or topo is None:
            for o in self.owned:
                for f in self.foreign:
                    yield o, f
            return
        buckets = CellBuckets(reach)
        for f in self.foreign:
            buckets.place(f, topo.position(f))
        for o in self.owned:
            for f in buckets.around(buckets.cell_at(topo.position(o))):
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
