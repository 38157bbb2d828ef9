"""Per-link reception models.

The paper's Section 6.4 calls out two properties that "proved
unexpectedly difficult" and that simulators of the era did not capture:
asymmetric links and intermittent connectivity.  Both are first-class
here:

* :class:`DistancePropagation` gives a distance-based packet reception
  ratio (PRR) with a plateau, a decay region, and a hard range limit,
  plus a static per-directed-link perturbation so A→B and B→A differ.
* :class:`GilbertElliotLink` overlays a two-state (good/bad) process per
  link for intermittent connectivity.
* :class:`TablePropagation` pins explicit per-link PRRs, the link
  table the channel and MAC unit tests use in place of geometry.

Each answers the whole :class:`PropagationModel` contract consumed by
:mod:`repro.radio.neighborhood`: bounds that may overestimate (never
underestimate) build the cached candidate sets, and every exact PRR
still comes from the scalar methods below.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Protocol, Tuple

from repro.sim.rng import make_rng
from repro.radio.topology import Topology


class PropagationModel(Protocol):
    """Answers: with what probability does a fragment from ``src`` reach
    ``dst`` at time ``now``?  Zero means out of range (inaudible).

    Every model answers the whole contract, which is what lets
    :mod:`repro.radio.neighborhood` cache who hears whom:

    * :meth:`link_prr` — the exact PRR.
    * :meth:`prr_epoch` — an opaque version token.  While the token is
      unchanged, :meth:`link_prr_bound` is constant per directed link
      and :meth:`link_prr_window` results remain valid until their own
      expiry.  Geometry changes (``Topology.move_node``), table edits,
      and anything else that can alter a link's *bound* must change the
      token.
    * :meth:`link_prr_bound` — an upper bound on ``link_prr(src, dst,
      t)`` over all ``t`` within the current epoch.  Used to build
      audibility (> 0) and carrier-sense (>= threshold) candidate sets;
      it may overestimate (candidates are re-checked per query) but must
      never underestimate, or deliveries would be silently skipped.
    * :meth:`link_prr_window` — the exact PRR at ``now`` plus the
      absolute time until which that value stays constant (``math.inf``
      for purely static models).  Time-driven state such as a
      Gilbert–Elliot flip is expressed through this per-link expiry
      rather than the global epoch, because flips are discovered lazily
      at query time — a global counter alone could not invalidate a
      memoized link the moment its own state silently changed.
    * :meth:`audible_reach` with the :attr:`topology` it applies to — a
      planar distance beyond which no link is ever audible.  Candidate
      sets are then built from the reach-sized grid cells around the
      sender only.  ``None`` for either means no spatial bound, and the
      index scans every member.
    * :meth:`moved_since` — given an earlier :meth:`prr_epoch` token,
      the nodes whose position changed since, *provided nothing else
      that feeds a bound did*.  With a list the index repairs the
      neighbourhoods of those nodes and keeps the rest; ``None`` means
      unknown, and it starts over.  An overlay delegates to its base
      only while its own part of the token is unchanged.
    """

    topology: Optional[Topology]

    def link_prr(self, src: int, dst: int, now: float) -> float:
        ...  # pragma: no cover

    def prr_epoch(self) -> object:
        ...  # pragma: no cover

    def link_prr_bound(self, src: int, dst: int) -> float:
        ...  # pragma: no cover

    def link_prr_window(self, src: int, dst: int, now: float) -> Tuple[float, float]:
        ...  # pragma: no cover

    def audible_reach(self) -> Optional[float]:
        ...  # pragma: no cover

    def moved_since(self, epoch) -> Optional[List[int]]:
        ...  # pragma: no cover


class DistancePropagation:
    """Distance-driven PRR with deterministic per-link asymmetry.

    PRR is 1 within ``full_range`` and decays smoothly to 0 at
    ``max_range`` (a cosine ramp).  Asymmetry perturbs the *effective
    distance* of each directed link by a factor drawn once from the
    experiment seed: solid links stay solid in both directions, but
    links near the range edge differ between directions — matching the
    asymmetric links observed on the testbed, where loss on good links
    came from collisions rather than the channel.
    """

    def __init__(
        self,
        topology: Topology,
        full_range: float = 20.0,
        max_range: float = 30.0,
        asymmetry: float = 0.15,
        seed: int = 1,
    ) -> None:
        if max_range <= full_range:
            raise ValueError("max_range must exceed full_range")
        if not 0.0 <= asymmetry <= 1.0:
            raise ValueError("asymmetry must be within [0, 1]")
        self.topology = topology
        self.full_range = full_range
        self.max_range = max_range
        self.asymmetry = asymmetry
        self._seed = seed
        self._perturbation: Dict[Tuple[int, int], float] = {}

    def _link_factor(self, src: int, dst: int) -> float:
        key = (src, dst)
        factor = self._perturbation.get(key)
        if factor is None:
            # Derive deterministically per directed link so asymmetry is
            # stable regardless of query order.
            rng = make_rng(self._seed, f"asym:{src}->{dst}")
            factor = 1.0 + self.asymmetry * (2.0 * rng.random() - 1.0)
            self._perturbation[key] = factor
        return factor

    def base_prr(self, distance: float) -> float:
        """PRR before per-link perturbation."""
        if distance <= self.full_range:
            return 1.0
        if distance >= self.max_range:
            return 0.0
        frac = (distance - self.full_range) / (self.max_range - self.full_range)
        return 0.5 * (1.0 + math.cos(math.pi * frac))

    def link_prr(self, src: int, dst: int, now: float) -> float:
        if src == dst:
            return 0.0
        distance = self.topology.effective_distance(src, dst)
        perturbed = distance * self._link_factor(src, dst)
        return self.base_prr(perturbed)

    # -- the rest of the contract (repro.radio.neighborhood) ----------------

    def prr_epoch(self) -> object:
        return self.topology.version

    def link_prr_bound(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        # Geometric upper bound: the per-link factor shrinks the
        # effective distance by at most (1 - asymmetry), so evaluating
        # the ramp there can only overestimate the PRR.  This keeps a
        # candidate-set build from materializing a derived RNG for
        # every out-of-range pair it probes; audible candidates are
        # re-checked with the exact PRR per query.
        distance = self.topology.effective_distance(src, dst)
        return self.base_prr(distance * (1.0 - self.asymmetry))

    def link_prr_window(self, src: int, dst: int, now: float) -> Tuple[float, float]:
        # Purely geometric: constant until the topology version bumps.
        return self.link_prr(src, dst, now), math.inf

    def audible_reach(self) -> Optional[float]:
        """Spatial hint: beyond this planar distance no link can have a
        non-zero PRR, for any perturbation and any epoch.

        The per-link factor shrinks effective distance by at most
        ``(1 - asymmetry)``, and the floor penalty only adds distance,
        so ``max_range / (1 - asymmetry)`` bounds the planar separation
        of any audible pair.  Both indexes of
        :mod:`repro.radio.neighborhood` bucket nodes into cells of this
        size and probe only neighbouring cells instead of every pair.
        """
        if self.asymmetry >= 1.0:
            return None
        return self.max_range / (1.0 - self.asymmetry)

    def moved_since(self, epoch: int) -> Optional[List[int]]:
        # Positions are the only input that ever changes here.
        return self.topology.moved_since(epoch)


class TablePropagation:
    """Explicit per-directed-link PRRs; absent links are out of range."""

    #: Table links are not geometric: no positions to bound them by.
    topology = None

    def __init__(self, links: Optional[Dict[Tuple[int, int], float]] = None) -> None:
        self._links: Dict[Tuple[int, int], float] = {}
        self._version = 0
        for (src, dst), prr in (links or {}).items():
            self.set_link(src, dst, prr)

    def set_link(self, src: int, dst: int, prr: float, symmetric: bool = False) -> None:
        if not 0.0 <= prr <= 1.0:
            raise ValueError(f"PRR must be within [0, 1], got {prr}")
        self._links[(src, dst)] = prr
        if symmetric:
            self._links[(dst, src)] = prr
        self._version += 1

    def remove_link(self, src: int, dst: int, symmetric: bool = False) -> None:
        self._links.pop((src, dst), None)
        if symmetric:
            self._links.pop((dst, src), None)
        self._version += 1

    def link_prr(self, src: int, dst: int, now: float) -> float:
        return self._links.get((src, dst), 0.0)

    # -- the rest of the contract (repro.radio.neighborhood) ----------------

    def prr_epoch(self) -> object:
        return self._version

    def link_prr_bound(self, src: int, dst: int) -> float:
        return self._links.get((src, dst), 0.0)

    def link_prr_window(self, src: int, dst: int, now: float) -> Tuple[float, float]:
        return self._links.get((src, dst), 0.0), math.inf

    def audible_reach(self) -> Optional[float]:
        # Table links are not geometric; no spatial bound exists.
        return None

    def moved_since(self, epoch: int) -> Optional[List[int]]:
        # Every token change is a table edit, which no mover list covers.
        return None


class GilbertElliotLink:
    """Two-state intermittence overlay on another propagation model.

    Each directed link alternates between a GOOD state (underlying PRR)
    and a BAD state (PRR scaled by ``bad_scale``), with exponentially
    distributed dwell times.  State transitions are computed lazily and
    deterministically from the experiment seed.
    """

    def __init__(
        self,
        base: PropagationModel,
        mean_good: float = 120.0,
        mean_bad: float = 15.0,
        bad_scale: float = 0.1,
        seed: int = 1,
    ) -> None:
        if mean_good <= 0 or mean_bad <= 0:
            raise ValueError("dwell times must be positive")
        if not 0.0 <= bad_scale <= 1.0:
            raise ValueError(f"bad_scale must be within [0, 1], got {bad_scale}")
        self.base = base
        self.mean_good = mean_good
        self.mean_bad = mean_bad
        self.bad_scale = bad_scale
        self.seed = seed
        # Per-link: (state_is_good, state_entered_at, state_ends_at, rng)
        self._state: Dict[Tuple[int, int], list] = {}

    def _advance(self, link: Tuple[int, int], now: float) -> list:
        state = self._state.get(link)
        if state is None:
            rng = make_rng(self.seed, f"gilbert:{link[0]}->{link[1]}")
            good = rng.random() >= self.mean_bad / (self.mean_good + self.mean_bad)
            mean = self.mean_good if good else self.mean_bad
            state = [good, 0.0, rng.expovariate(1.0 / mean), rng]
            self._state[link] = state
        while state[2] <= now:
            state[0] = not state[0]
            state[1] = state[2]
            mean = self.mean_good if state[0] else self.mean_bad
            state[2] = state[1] + state[3].expovariate(1.0 / mean)
        return state

    def link_prr(self, src: int, dst: int, now: float) -> float:
        prr = self.base.link_prr(src, dst, now)
        if prr <= 0.0:
            return 0.0
        if self._advance((src, dst), now)[0]:
            return prr
        return prr * self.bad_scale

    # -- the rest of the contract (repro.radio.neighborhood) ----------------

    def prr_epoch(self) -> object:
        return ("gilbert", self.base.prr_epoch())

    def link_prr_bound(self, src: int, dst: int) -> float:
        # State-independent: good state passes the base PRR through
        # unchanged and bad state scales it by at most 1, so the
        # per-epoch maximum is the base bound.
        return self.base.link_prr_bound(src, dst)

    def link_prr_window(self, src: int, dst: int, now: float) -> Tuple[float, float]:
        base_prr, base_expiry = self.base.link_prr_window(src, dst, now)
        if base_prr <= 0.0:
            return 0.0, base_expiry
        state = self._advance((src, dst), now)
        prr = base_prr if state[0] else base_prr * self.bad_scale
        return prr, min(base_expiry, state[2])

    def audible_reach(self) -> Optional[float]:
        # The overlay scales PRRs but never resurrects a zero link, so
        # the base model's spatial bound carries over unchanged.
        return self.base.audible_reach()

    @property
    def topology(self) -> Optional[Topology]:
        return self.base.topology

    def moved_since(self, epoch: Tuple[str, object]) -> Optional[List[int]]:
        # The overlay's own part of the token never changes: flips are
        # carried by the per-link windows.
        return self.base.moved_since(epoch[1])
