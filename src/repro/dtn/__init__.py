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
the legacy one.  So is the import: the names below load their module on
first use (PEP 562), and ``import repro.dtn.scenario`` — what the preset
registry does — loads neither the agent nor the store.
"""

import importlib

#: every name this package exports -> the module that defines it.
_EXPORTS = {
    "CUSTODY_CONTROL_KIND": "repro.dtn.agent",
    "CUSTODY_FILTER_PRIORITY": "repro.dtn.agent",
    "CustodyAgent": "repro.dtn.agent",
    "CustodyEntry": "repro.dtn.custody",
    "CustodyStore": "repro.dtn.custody",
    "DtnConfig": "repro.dtn.config",
    "dtn_run": "repro.dtn.scenario",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
