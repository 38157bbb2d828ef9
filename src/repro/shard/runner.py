"""Drivers for sharded runs and their single-queue oracle.

Three ways to execute the same :class:`~repro.shard.worker.ShardPlan`:

* :func:`run_oracle` — the whole network in one
  :class:`~repro.sim.Simulator`.  This is the trusted reference: the
  sharded paths exist to reproduce its outcome faster, never to define
  a different one, and it shares none of their machinery.
* :func:`run_sharded` with ``transport="inline"`` — all shard runtimes
  in the calling process, each handed the others' messages directly.
  Deterministic and debuggable; this is what the equivalence suite
  sweeps.
* :func:`run_sharded` with ``transport="process"`` — one OS process
  per shard via :class:`~repro.shard.process.WorkerCrew`, all-to-all
  pipes, no coordinator on the hot path.  This is the mode that buys
  wall-clock speedup on multi-core hosts.  Only this transport imports
  :mod:`repro.shard.process` (and with it :mod:`multiprocessing`).

Both transports drive the one round in
:meth:`~repro.shard.worker.ShardRuntime.step`; a transport owns only
how messages travel and what it can measure about that (blocked-in-recv
seconds and bytes on the pipes; their counterfactuals inline).

Outcomes are merged with :func:`merge_outcomes` (ints/floats sum,
lists concatenate sorted, dicts recurse), so a K-shard result is
directly comparable to the oracle's dict.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, List, Optional

import repro.core.messages as core_messages
from repro.shard.scenario import ShardNet, get_scenario
from repro.shard.worker import ShardPlan, ShardRuntime
from repro.sim.metrics import MetricsRegistry, current_registry, use_registry


def merge_outcomes(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard outcome dicts into one network-wide outcome."""
    if not parts:
        return {}
    merged: Dict[str, Any] = {}
    for key in parts[0]:
        values = [part[key] for part in parts]
        first = values[0]
        if isinstance(first, dict):
            merged[key] = merge_outcomes(values)
        elif isinstance(first, bool):
            merged[key] = any(values)
        elif isinstance(first, (int, float)):
            merged[key] = sum(values)
        elif isinstance(first, list):
            combined: List[Any] = []
            for value in values:
                combined.extend(value)
            merged[key] = sorted(combined)
        else:
            raise TypeError(
                f"outcome key {key!r} has unmergeable type "
                f"{type(first).__name__}"
            )
    return merged


def build_whole(plan: ShardPlan) -> ShardNet:
    """The only single-queue build: restart the process-global message
    ids (so paired runs are bit-identical, not merely equivalent), build
    with every node owned, and schedule the identical move events at the
    same priority the shards use."""
    core_messages._msg_counter = itertools.count(1)
    scenario = get_scenario(plan.scenario)
    params = plan.build_params()
    topology = scenario.topology(params)
    net = scenario.build(topology, topology.node_ids(), params, plan.seed)
    for t, node, x, y in sorted(scenario.move_schedule(params, topology)):
        net.sim.schedule_at(
            t, topology.move_node, node, x, y,
            name="shard.move", priority=-2,
        )
    return net


def run_oracle(plan: ShardPlan) -> Dict[str, Any]:
    """The whole plan in one event queue — the ground-truth outcome."""
    net = build_whole(plan)
    net.sim.run(until=plan.duration)
    return net.outcome()


def run_sharded(
    plan: ShardPlan,
    transport: str = "inline",
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Execute ``plan`` across ``plan.shards`` shards.

    Returns ``{"outcome": merged outcome, "shards": [per-shard stats],
    "metrics": [per-shard metric snapshots], "profile": sync profile}``.

    Every per-shard metric snapshot is also folded into the *caller's*
    active registry via :meth:`~repro.sim.metrics.MetricsRegistry.merge`
    (a no-op under the null registry), so process-transport runs no
    longer lose shard-worker metrics: ``use_registry()`` around a
    sharded run sees ``shard.*`` instruments exactly as an inline run
    would.
    """
    if transport == "inline":
        results = _run_inline(plan)
    elif transport == "process":
        results = _run_process(plan, timeout=timeout)
    else:
        raise ValueError(f"unknown transport {transport!r}")
    parent = current_registry()
    for r in results:
        parent.merge(r["metrics"])
    return {
        "outcome": merge_outcomes([r["outcome"] for r in results]),
        "shards": [r["stats"] for r in results],
        "metrics": [r["metrics"] for r in results],
        "profile": sync_profile([r["stats"] for r in results]),
    }


def sync_profile(stats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard stats dicts into one synchronization profile.

    ``windows_by_term`` sums across shards (so term shares over the
    total are the network-wide attribution), ``empty_windows`` counts
    the windows that executed no event (about half of all windows when
    the shards take turns, a few percent when they run the same slice
    of time together), stall and exchange totals aggregate, and
    ``imbalance`` is max/mean of per-shard busy seconds — 1.0 is a
    perfectly balanced partition, K is one shard doing all the work of
    K.
    """
    windows_by_term: Dict[str, int] = {}
    for s in stats:
        for term, count in s.get("windows_by_term", {}).items():
            windows_by_term[term] = windows_by_term.get(term, 0) + count
    busy = [s.get("busy_seconds", 0.0) for s in stats]
    mean_busy = sum(busy) / len(busy) if busy else 0.0
    return {
        "windows": sum(windows_by_term.values()),
        "windows_by_term": dict(sorted(windows_by_term.items())),
        "empty_windows": sum(s.get("empty_windows", 0) for s in stats),
        "stall_seconds": [s.get("stall_seconds", 0.0) for s in stats],
        "exchange_bytes": sum(s.get("exchange_bytes", 0) for s in stats),
        "imbalance": (max(busy) / mean_busy) if mean_busy > 0 else 1.0,
    }


def _run_process(
    plan: ShardPlan, timeout: Optional[float]
) -> List[Dict[str, Any]]:
    # Imported here: one-queue and inline runs must not load multiprocessing.
    from repro.shard.process import WorkerCrew

    with WorkerCrew(
        plan.shards, "repro.shard.process:shard_worker_main"
    ) as crew:
        crew.start([plan] * plan.shards)
        return crew.collect(timeout=timeout)


def _run_inline(plan: ShardPlan) -> List[Dict[str, Any]]:
    """All shards in-process: hand every runtime the others' messages.

    Each runtime gets its own metrics registry so per-shard kernel
    counters don't collide; message ids share one counter (uniqueness
    per origin node is all correctness needs).
    """
    # Imported here: only the inline exchange measures pickled sizes.
    import pickle

    core_messages._msg_counter = itertools.count(1)
    registries = [MetricsRegistry() for _ in range(plan.shards)]
    runtimes: List[ShardRuntime] = []
    for rank in range(plan.shards):
        with use_registry(registries[rank]):
            runtimes.append(ShardRuntime(plan, rank))
    while not all(rt.done for rt in runtimes):
        messages = [rt.outgoing() for rt in runtimes]
        walls = []
        for rank, rt in enumerate(runtimes):
            # What the process transport would have shipped this round;
            # measured (outside the busy timers) so inline runs report
            # the same exchange volume.
            rt.stats.exchange_bytes += len(
                pickle.dumps(messages[rank], protocol=pickle.HIGHEST_PROTOCOL)
            ) * (plan.shards - 1)
            started = time.perf_counter()
            rt.step({
                peer: message
                for peer, message in enumerate(messages)
                if peer != rank
            })
            walls.append(time.perf_counter() - started)
        # Inline shards run serially, so barrier stall is *counter-
        # factual*: had the round run in parallel, each shard would
        # have waited for the round's slowest step.
        slowest = max(walls)
        for rt, wall in zip(runtimes, walls):
            rt.stats.stall_seconds += slowest - wall
    results = []
    for rank, rt in enumerate(runtimes):
        result = rt.result()
        result["metrics"] = registries[rank].snapshot()
        results.append(result)
    return results


__all__ = [
    "build_whole",
    "merge_outcomes",
    "run_oracle",
    "run_sharded",
    "sync_profile",
]
