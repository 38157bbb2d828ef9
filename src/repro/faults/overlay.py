"""Fault overlay: link cuts and partitions on top of any propagation model.

Link-level faults (flaps, partitions) are injected *below* the channel,
as a propagation overlay: a cut directed link answers PRR 0 regardless
of what the base model says, so the dead link disappears from both
delivery and carrier sensing.  Everything else delegates to the base
model unchanged.

The overlay honors the radio fast-path contract
(:class:`~repro.radio.propagation.FastPathPropagation`): its epoch token
pairs an overlay version counter with the base epoch, and every
mutation (block, unblock, partition, heal) bumps the version — so a
:class:`~repro.radio.neighborhood.NeighborhoodIndex` built over the
overlay drops every cached audibility/carrier set the moment the fault
landscape changes (``moved_since`` answers "unknown" across a
mutation: a partition cuts links anywhere).  While the landscape holds,
the base's movers, spatial reach and topology pass straight through, so
mobility under a fault plan is repaired as locally as without one.  A
cut link's bound is 0 (never underestimating the truth — the truth *is*
0) and its window is valid forever (any change bumps the epoch first).

Partition semantics: nodes assigned to different groups cannot hear
each other; nodes in the same group, and nodes assigned to *no* group,
are untouched.  Unlisted nodes therefore straddle the partition — handy
for modelling a mobile node that both islands can still reach.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple


class FaultOverlayPropagation:
    """Wraps a propagation model with a mutable set of dead links."""

    def __init__(self, base) -> None:
        self.base = base
        self._blocked: Set[Tuple[int, int]] = set()
        self._group: Dict[int, int] = {}
        self._version = 0
        #: mutation count, for tests and reporting.
        self.changes = 0

    # -- mutation ------------------------------------------------------------

    def _bump(self) -> None:
        self._version += 1
        self.changes += 1

    def block_link(self, src: int, dst: int, symmetric: bool = True) -> None:
        self._blocked.add((src, dst))
        if symmetric:
            self._blocked.add((dst, src))
        self._bump()

    def unblock_link(self, src: int, dst: int, symmetric: bool = True) -> None:
        self._blocked.discard((src, dst))
        if symmetric:
            self._blocked.discard((dst, src))
        self._bump()

    def set_partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Install a partition; replaces any existing one."""
        assignment: Dict[int, int] = {}
        for group_id, group in enumerate(groups):
            for node in group:
                assignment[node] = group_id
        self._group = assignment
        self._bump()

    def clear_partition(self) -> None:
        self._group = {}
        self._bump()

    # -- queries -------------------------------------------------------------

    def is_cut(self, src: int, dst: int) -> bool:
        if (src, dst) in self._blocked:
            return True
        if self._group:
            src_group = self._group.get(src)
            dst_group = self._group.get(dst)
            if src_group is not None and dst_group is not None:
                return src_group != dst_group
        return False

    def link_prr(self, src: int, dst: int, now: float) -> float:
        if self.is_cut(src, dst):
            return 0.0
        return self.base.link_prr(src, dst, now)

    # -- fast-path protocol (repro.radio.neighborhood) -----------------------

    def prr_epoch(self) -> object:
        # Raises AttributeError when the base model does not support the
        # fast path; supports_fast_path treats that as "reference scan".
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
        reach = getattr(self.base, "audible_reach", None)
        return reach() if reach is not None else None

    @property
    def topology(self):
        return getattr(self.base, "topology", None)

    def moved_since(self, epoch: Tuple[int, object]) -> Optional[List[int]]:
        # A cut or heal since ``epoch`` can change bounds anywhere in
        # the network; only with the fault landscape unchanged is the
        # base's list of movers the whole story.
        moved = getattr(self.base, "moved_since", None)
        if moved is None or epoch[0] != self._version:
            return None
        return moved(epoch[1])
