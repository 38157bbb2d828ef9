"""Fault overlay: link cuts on top of any propagation model.

Link-level faults (flaps, partitions) are injected *below* the channel,
as a propagation overlay: a cut directed link answers PRR 0 regardless
of what the base model says, so the dead link disappears from both
delivery and carrier sensing.  Everything else delegates to the base
model unchanged.

Every link fault is one entry in a table of cuts, keyed by the fault
action that owns it.  A cut is a list of node groups: nodes in
different groups cannot hear each other; nodes in the same group, and
nodes in *no* group, are untouched — unlisted nodes straddle the cut,
as a mobile node both islands can reach does.  A flap of the ``a``–``b``
link is the cut ``((a,), (b,))``.  :meth:`restore` lifts only its own
key's cut, so overlapping faults heal independently of schedule order.

The overlay answers the whole propagation contract
(:class:`~repro.radio.propagation.PropagationModel`): its epoch token
pairs an overlay version counter with the base epoch, and every
:meth:`cut` and :meth:`restore` bumps the version — so a
:class:`~repro.radio.neighborhood.NeighborhoodIndex` built over the
overlay drops every cached audibility/carrier set the moment the fault
landscape changes (``moved_since`` answers "unknown" across a
mutation: a partition cuts links anywhere).  While the landscape holds,
the base's movers, spatial reach and topology pass straight through, so
mobility under a fault plan is repaired as locally as without one.  A
cut link's bound is 0 (never underestimating the truth — the truth *is*
0) and its window is valid forever (any change bumps the epoch first).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Tuple


class FaultOverlayPropagation:
    """Wraps a propagation model with a table of owned link cuts."""

    def __init__(self, base) -> None:
        self.base = base
        # owner key -> {node: group id} of the cut that owner made
        self._cuts: Dict[Hashable, Dict[int, int]] = {}
        self._version = 0

    # -- mutation ------------------------------------------------------------

    def cut(self, key: Hashable, groups: Iterable[Iterable[int]]) -> None:
        """Install ``key``'s cut between ``groups``, replacing any cut
        ``key`` made before."""
        self._cuts[key] = {
            node: group_id
            for group_id, group in enumerate(groups)
            for node in group
        }
        self._version += 1

    def restore(self, key: Hashable) -> None:
        """Lift ``key``'s cut; every other cut stays in force."""
        self._cuts.pop(key, None)
        self._version += 1

    # -- queries -------------------------------------------------------------

    def is_cut(self, src: int, dst: int) -> bool:
        for assignment in self._cuts.values():
            src_group = assignment.get(src)
            if src_group is not None:
                dst_group = assignment.get(dst)
                if dst_group is not None and dst_group != src_group:
                    return True
        return False

    def link_prr(self, src: int, dst: int, now: float) -> float:
        if self.is_cut(src, dst):
            return 0.0
        return self.base.link_prr(src, dst, now)

    # -- the rest of the contract (repro.radio.neighborhood) -----------------

    def prr_epoch(self) -> object:
        return (self._version, self.base.prr_epoch())

    def link_prr_bound(self, src: int, dst: int) -> float:
        if self.is_cut(src, dst):
            return 0.0
        return self.base.link_prr_bound(src, dst)

    def link_prr_window(self, src: int, dst: int, now: float) -> Tuple[float, float]:
        if self.is_cut(src, dst):
            # Constant until the next mutation, which bumps the epoch
            # and drops every memoized window anyway.
            return 0.0, math.inf
        return self.base.link_prr_window(src, dst, now)

    def audible_reach(self) -> Optional[float]:
        # A cut only removes links, so the base's spatial bound still
        # covers every audible pair.
        return self.base.audible_reach()

    @property
    def topology(self):
        return self.base.topology

    def moved_since(self, epoch: Tuple[int, object]) -> Optional[List[int]]:
        # A cut or heal since ``epoch`` can change bounds anywhere in
        # the network; only with the fault landscape unchanged is the
        # base's list of movers the whole story.
        if epoch[0] != self._version:
            return None
        return self.base.moved_since(epoch[1])
