"""The process transport: one OS process per shard, all-to-all pipes.

Only :func:`~repro.shard.runner.run_sharded` with
``transport="process"`` imports this module, so a single-queue or
inline run never loads :mod:`multiprocessing`.

:class:`WorkerCrew` is a fixed crew of *cooperating* workers that each
hold one shard for the whole run and exchange boundary traffic every
synchronization round.  Routing those rounds through the parent would
double the per-round latency, so the crew is wired all-to-all: every
worker pair shares its own duplex pipe and computes the next window
barrier locally from what its peers sent (:func:`shard_worker_main`
drives :meth:`~repro.shard.worker.ShardRuntime.step` over them, and
:func:`_exchange_all` moves one round's messages).

The parent keeps one duplex pipe per worker for plan distribution and
result collection, detects crashed workers (a dead shard means the
round barrier would hang forever), and terminates the crew on error.

The worker entry point is named by dotted path (``pkg.mod:func``) and
resolved inside the child, so the crew works under any multiprocessing
start method; it is called as ``func(rank, size, peers, plan)`` where
``peers`` maps each other rank to its pipe connection, and its return
value is what :meth:`WorkerCrew.collect` hands back.
"""

from __future__ import annotations

import importlib
import itertools
import multiprocessing
import multiprocessing.connection
import pickle
import time
import traceback
from typing import Any, Dict, List, Optional

import repro.core.messages as core_messages
from repro.shard.worker import ShardPlan, ShardRuntime
from repro.sim.metrics import use_registry

#: parent-side poll cadence while waiting on results, seconds; short
#: enough that crashes and Ctrl-C stay responsive.
_POLL_INTERVAL = 0.1


class WorkerCrashed(RuntimeError):
    """A crew worker died or errored before returning its result."""

    def __init__(self, rank: int, detail: str) -> None:
        super().__init__(f"worker {rank}: {detail}")
        self.rank = rank
        self.detail = detail


def _resolve_target(path: str):
    module_name, _, func_name = path.partition(":")
    if not func_name:
        raise ValueError(f"target must be 'module:function', got {path!r}")
    module = importlib.import_module(module_name)
    return getattr(module, func_name)


def _child_main(rank, size, target_path, parent_conn, peers, plan):
    """Child-process entry: resolve the target, run it, report once."""
    try:
        target = _resolve_target(target_path)
        result = target(rank, size, peers, plan)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        parent_conn.send(("error", "interrupted"))
    except BaseException:
        parent_conn.send(("error", traceback.format_exc(limit=20)))
    else:
        parent_conn.send(("done", result))
    finally:
        parent_conn.close()
        for conn in peers.values():
            conn.close()


class WorkerCrew:
    """A fixed-size crew of cooperating worker processes.

    Usage::

        crew = WorkerCrew(size=4, target="repro.shard.process:shard_worker_main")
        crew.start(plans)          # one plan per rank
        results = crew.collect()   # blocks; raises WorkerCrashed on death

    The crew is single-shot: one ``start``, one ``collect``, then
    :meth:`shutdown` (also invoked by ``collect`` on error and by the
    context-manager exit).
    """

    def __init__(self, size: int, target: str) -> None:
        if size < 1:
            raise ValueError("crew size must be >= 1")
        self.size = size
        self.target = target
        self._ctx = multiprocessing.get_context()
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._started = False

    def start(self, plans: List[Any]) -> None:
        """Spawn the crew, handing ``plans[rank]`` to each worker."""
        if self._started:
            raise RuntimeError("crew already started")
        if len(plans) != self.size:
            raise ValueError(f"expected {self.size} plans, got {len(plans)}")
        self._started = True
        # One duplex pipe per unordered worker pair ...
        peer_ends: List[Dict[int, Any]] = [{} for _ in range(self.size)]
        child_side: List[Any] = []
        for a, b in itertools.combinations(range(self.size), 2):
            end_a, end_b = self._ctx.Pipe(duplex=True)
            peer_ends[a][b] = end_a
            peer_ends[b][a] = end_b
            child_side.extend((end_a, end_b))
        # ... plus a parent pipe per worker for plan/result traffic.
        for rank in range(self.size):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_child_main,
                args=(
                    rank, self.size, self.target, child_conn,
                    peer_ends[rank], plans[rank],
                ),
                name=f"shard-worker-{rank}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        # Under a spawn/forkserver context the parent's copies of the
        # peer ends are dead weight once the children hold theirs.
        for end in child_side:
            end.close()

    def collect(self, timeout: Optional[float] = None) -> List[Any]:
        """Block until every worker reported; results in rank order.

        Raises :exc:`WorkerCrashed` if any worker errored or died, and
        :exc:`TimeoutError` past ``timeout`` seconds — the crew is torn
        down in both cases, so the caller never joins a hung barrier.
        """
        if not self._started:
            raise RuntimeError("crew not started")
        deadline = time.monotonic() + timeout if timeout is not None else None
        results: List[Any] = [None] * self.size
        remaining = set(range(self.size))
        try:
            while remaining:
                conns = {id(self._conns[r]): r for r in remaining}
                ready = multiprocessing.connection.wait(
                    [self._conns[r] for r in remaining],
                    timeout=_POLL_INTERVAL,
                )
                for conn in ready:
                    rank = conns[id(conn)]
                    try:
                        kind, value = conn.recv()
                    except EOFError:
                        raise WorkerCrashed(
                            rank, "exited without reporting a result"
                        )
                    if kind == "error":
                        raise WorkerCrashed(rank, value)
                    results[rank] = value
                    remaining.discard(rank)
                for rank in sorted(remaining):
                    proc = self._procs[rank]
                    if not proc.is_alive() and not self._conns[rank].poll():
                        raise WorkerCrashed(
                            rank, f"died with exit code {proc.exitcode}"
                        )
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"workers {sorted(remaining)} still running after "
                        f"{timeout}s"
                    )
        except BaseException:
            self.shutdown()
            raise
        return results

    def shutdown(self) -> None:
        """Terminate and reap every worker; safe to call repeatedly."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []

    def __enter__(self) -> "WorkerCrew":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def shard_worker_main(rank, size, peers, plan: ShardPlan):
    """:class:`WorkerCrew` entry point: drive :meth:`ShardRuntime.step`
    over all-to-all peer pipes; there is no coordinator on the hot path.
    """
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    # Per-process message-id namespace: ids must be unique per origin
    # network-wide, and shards host disjoint origins, but keeping the
    # namespaces disjoint too makes cross-shard logs unambiguous.
    core_messages._msg_counter = itertools.count(1 + rank * 10 ** 9)
    with use_registry() as registry:
        runtime = ShardRuntime(plan, rank)
        while not runtime.done:
            received, recv_wait, sent_bytes = _exchange_all(
                rank, peers, runtime.outgoing()
            )
            # Time blocked in recv is time spent waiting for slower
            # peers — the barrier-stall share of this shard's wall.
            runtime.stats.stall_seconds += recv_wait
            runtime.stats.exchange_bytes += sent_bytes
            runtime.step(received)
        runtime.stats.cpu_seconds = time.process_time() - cpu_start
        runtime.stats.wall_seconds = time.perf_counter() - wall_start
        result = runtime.result()
        result["metrics"] = registry.snapshot()
        return result


#: eager-exchange cutoff; comfortably below the smallest OS pipe
#: buffer, so firing to every peer before reading cannot block.
_EAGER_SEND_LIMIT = 16384


def _exchange_all(rank, peers, payload):
    """Deadlock-free all-to-all exchange of one pickled message.

    The payload is pickled once.  Small blobs (the overwhelmingly
    common case — a promise and a handful of exports) are fired to
    every peer before any read, so the whole exchange costs each worker
    one wakeup.  Oversized blobs fall back to pairwise rendezvous in
    ascending rank order with the lower rank sending first, which
    cannot cycle even when a send blocks on a full pipe.

    Returns ``(received, recv_wait_seconds, bytes_sent)``: the per-peer
    payloads, the wall-clock spent blocked in ``recv`` (the shard-sync
    profiler's barrier-stall measure — everything this worker computed
    was already done when the waiting started), and the total pickled
    bytes shipped to peers.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    received = {}
    order = sorted(peers)
    recv_wait = 0.0
    if len(blob) <= _EAGER_SEND_LIMIT:
        for peer_rank in order:
            peers[peer_rank].send_bytes(blob)
        for peer_rank in order:
            waited = time.perf_counter()
            raw = peers[peer_rank].recv_bytes()
            recv_wait += time.perf_counter() - waited
            received[peer_rank] = pickle.loads(raw)
    else:
        for peer_rank in order:
            conn = peers[peer_rank]
            if rank < peer_rank:
                conn.send_bytes(blob)
                waited = time.perf_counter()
                raw = conn.recv_bytes()
                recv_wait += time.perf_counter() - waited
                received[peer_rank] = pickle.loads(raw)
            else:
                waited = time.perf_counter()
                raw = conn.recv_bytes()
                recv_wait += time.perf_counter() - waited
                received[peer_rank] = pickle.loads(raw)
                conn.send_bytes(blob)
    return received, recv_wait, len(blob) * len(order)
