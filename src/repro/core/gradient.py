"""Gradient state (paper Section 3.1).

"To each such neighbor, it sets up a gradient.  A gradient represents
both the direction towards which data matching an interest flows, and
the status of that demand."

The table is keyed by interest digest.  Each entry tracks:

* plain gradients — neighbor -> expiry time, one per neighbor the
  interest arrived from, refreshed by interest re-floods;
* reinforced gradients — (data origin, neighbor) -> expiry time,
  created by positive reinforcement, used to forward non-exploratory
  data;
* upstream pointers — per data origin, the neighbor that delivered the
  first copy of the newest exploratory message, along which
  reinforcements propagate toward that source.

A gradient is a direction and the status of a demand: the key names
the neighbor, the expiry float is the status.  Held as numbers, the
two gradient dicts are containers CPython's cycle collector untracks,
so a large run's thousands of gradients cost its full passes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.naming import AttributeVector, MatchIndex


@dataclass
class UpstreamPointer:
    """Where the newest exploratory data for a given origin came from.

    ``neighbors`` lists every neighbor that delivered a copy of the
    current generation, in arrival order; the first is the preferred
    (lowest-latency) one.  Multipath reinforcement uses the rest.
    """

    neighbor: Optional[int]      # None when this node is the origin itself
    exploratory_id: Tuple[int, int]
    heard_at: float
    neighbors: List[Optional[int]] = field(default_factory=list)


class InterestEntry:
    """All state for one distinct interest."""

    def __init__(self, digest: bytes, attrs: AttributeVector) -> None:
        self.digest = digest
        self.attrs = attrs
        # neighbor -> expiry time
        self.gradients: Dict[int, float] = {}
        # (data_origin, neighbor) -> expiry time
        self.reinforced: Dict[Tuple[int, int], float] = {}
        # data_origin -> UpstreamPointer
        self.upstream: Dict[int, UpstreamPointer] = {}
        # data_origin -> neighbors this node (as a sink) last reinforced
        self.sink_preferred: Dict[int, List[int]] = {}
        self.last_refresh: float = 0.0
        self.local_sink = False       # a local subscription created this
        # data origins whose routes negative reinforcement tore down and
        # positive reinforcement has not since restored — lets the loss
        # attribution distinguish "path deliberately withdrawn" from
        # "path never established".  Made by the first tear-down: most
        # entries never see one.
        self.torn_down: Optional[Set[int]] = None

    # -- gradients -----------------------------------------------------------

    def update_gradient(self, neighbor: int, now: float, timeout: float) -> None:
        self.gradients[neighbor] = now + timeout
        self.last_refresh = now

    def active_gradient_neighbors(self, now: float) -> List[int]:
        return sorted(
            neighbor
            for neighbor, expires in self.gradients.items()
            if expires > now
        )

    def has_demand(self, now: float) -> bool:
        """Anyone (local or remote) still asking for this data?"""
        if self.local_sink:
            return True
        return any(expires > now for expires in self.gradients.values())

    # -- reinforcement ----------------------------------------------------------

    def reinforce(
        self, data_origin: int, neighbor: int, now: float, timeout: float
    ) -> None:
        if self.torn_down:
            self.torn_down.discard(data_origin)
        self.reinforced[(data_origin, neighbor)] = now + timeout

    def unreinforce(self, data_origin: int, neighbor: int) -> bool:
        if self.reinforced.pop((data_origin, neighbor), None) is None:
            return False
        if self.torn_down is None:
            self.torn_down = set()
        self.torn_down.add(data_origin)
        return True

    def was_torn_down(self, data_origin: int) -> bool:
        return self.torn_down is not None and data_origin in self.torn_down

    def reinforced_neighbors(self, data_origin: int, now: float) -> List[int]:
        return sorted(
            neighbor
            for (origin, neighbor), expires in self.reinforced.items()
            if origin == data_origin and expires > now
        )

    # -- upstream tracking --------------------------------------------------------

    def note_exploratory(
        self,
        data_origin: int,
        exploratory_id: Tuple[int, int],
        neighbor: Optional[int],
        now: float,
    ) -> bool:
        """Record a copy of an exploratory message.

        Returns True when this copy started a new generation (it was
        the first to arrive); later copies of the same generation are
        appended to the pointer's neighbor list for multipath use.
        """
        pointer = self.upstream.get(data_origin)
        if pointer is not None and pointer.exploratory_id == exploratory_id:
            if neighbor not in pointer.neighbors:
                pointer.neighbors.append(neighbor)
            return False
        self.upstream[data_origin] = UpstreamPointer(
            neighbor=neighbor,
            exploratory_id=exploratory_id,
            heard_at=now,
            neighbors=[neighbor],
        )
        return True

    def upstream_neighbors(self, data_origin: int) -> List[Optional[int]]:
        """All neighbors that delivered the newest generation, in
        arrival order (first = preferred)."""
        pointer = self.upstream.get(data_origin)
        return list(pointer.neighbors) if pointer is not None else []

    def upstream_neighbor(self, data_origin: int) -> Optional[int]:
        pointer = self.upstream.get(data_origin)
        return pointer.neighbor if pointer is not None else None

    # -- housekeeping ---------------------------------------------------------------

    def sweep(self, now: float) -> None:
        """Drop expired gradients and reinforcements.

        The periodic sweep usually finds nothing expired, so the dicts
        are only rebuilt when at least one entry actually lapsed.
        """
        if any(expires <= now for expires in self.gradients.values()):
            self.gradients = {
                n: expires for n, expires in self.gradients.items() if expires > now
            }
        if any(expires <= now for expires in self.reinforced.values()):
            self.reinforced = {
                k: expires for k, expires in self.reinforced.items() if expires > now
            }


class GradientTable:
    """All interest entries known at one node."""

    def __init__(self) -> None:
        self._entries: Dict[bytes, InterestEntry] = {}
        #: data digest -> entries whose formals the data satisfies,
        #: regardless of demand (see :mod:`repro.naming.engine`);
        #: cleared on every entry add and every sweep that drops one.
        self.match_index = MatchIndex()

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[InterestEntry]:
        return list(self._entries.values())

    def entry_for(self, attrs: AttributeVector) -> InterestEntry:
        """Get or create the entry for an interest's attribute vector."""
        digest = attrs.digest()
        entry = self._entries.get(digest)
        if entry is None:
            entry = InterestEntry(digest=digest, attrs=attrs)
            self._entries[digest] = entry
            self.match_index.clear()
        return entry

    def get(self, digest: bytes) -> Optional[InterestEntry]:
        return self._entries.get(digest)

    def matching_data(
        self, data_attrs: AttributeVector, now: float
    ) -> List[InterestEntry]:
        """Entries whose interest formals are satisfied by this data.

        The in-network forwarding decision: interest -> data one-way
        match, restricted to entries that still have active demand.
        Verdicts are identical to the Figure 2 reference scan; the cost
        is not.  The matching entries per data digest come from
        :class:`~repro.naming.engine.MatchIndex` (matching is independent
        of time): a copy of a datum already matched here — the same
        datum heard from another neighbour — is one dict probe, a new
        datum one segregated match per entry.  Only the cheap demand
        filter runs per message.
        """
        cached = self.match_index.matching(self._entries.values(), data_attrs)
        return [entry for entry in cached if entry.has_demand(now)]

    def entries_with_demand(self, now: float) -> List[InterestEntry]:
        """Entries some sink still wants (local, or an active gradient).

        Used by the hierarchy layer: a freshly elected cluster head
        re-floods the interests it knows are still demanded, so the
        backbone repairs immediately instead of waiting for the next
        sink-side interest refresh.
        """
        return [
            entry
            for entry in self._entries.values()
            if entry.has_demand(now)
        ]

    def sweep(self, now: float) -> None:
        """Expire gradients; drop entries with no state left at all."""
        dead = []
        for digest, entry in self._entries.items():
            entry.sweep(now)
            if (
                not entry.local_sink
                and not entry.gradients
                and not entry.reinforced
            ):
                dead.append(digest)
        for digest in dead:
            del self._entries[digest]
        if dead:
            self.match_index.clear()
