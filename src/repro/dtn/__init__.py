"""Disruption-tolerant diffusion: store-carry-forward custody.

Sparse mobile deployments break the diffusion fabric's standing
assumption that gradients and reinforcement survive ordinary loss —
connectivity itself comes and goes.  This package (ROADMAP's DTN
scenario item; the NAME mechanism in PAPERS.md) makes delivery robust
to that:

* :class:`~repro.dtn.custody.CustodyStore` — a bounded, energy-aware
  per-node promise ledger: blocks the routing core would drop on a dark
  gradient are held, watermark-evicted oldest-first, and *never*
  silently lost (every exit emits a ``custody.*`` trace event and
  terminal losses join the per-layer drop attribution);
* :class:`~repro.dtn.agent.CustodyAgent` — the filter between
  ``repro.transfer`` and ``repro.core`` that accepts custody, re-injects
  with seed-deterministic backoff (through the core when demand returns,
  as one-hop carrier beacons while dark — the data-mule handoff), and
  releases on one-hop custody acks, flooded receiver acks, or delivery;
* :mod:`~repro.dtn.scenario` — the transfer workload the ``dtn`` and
  ``mule`` presets (:mod:`repro.shard.scenario`) arm, with per-block
  loss attribution; :func:`~repro.dtn.scenario.dtn_run` is the ``dtn``
  front door the ``dtn_grid`` ledger workload calls.

Everything is opt-in per campaign: with no agent attached the stack is
the legacy one.
"""

from repro.dtn.config import DtnConfig
from repro.dtn.custody import CustodyEntry, CustodyStore
from repro.dtn.agent import (
    CUSTODY_CONTROL_KIND,
    CUSTODY_FILTER_PRIORITY,
    CustodyAgent,
)
from repro.dtn.scenario import dtn_run

__all__ = [
    "CUSTODY_CONTROL_KIND",
    "CUSTODY_FILTER_PRIORITY",
    "CustodyAgent",
    "CustodyEntry",
    "CustodyStore",
    "DtnConfig",
    "dtn_run",
]
