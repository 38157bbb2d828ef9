"""Long-lived worker processes with peer-to-peer pipes.

:mod:`repro.campaign.pool` maps *independent* trials onto a process
pool: workers are anonymous, receive one pickled closure each, and
never talk to each other.  The sharded simulator
(:mod:`repro.shard`) needs the opposite shape — a fixed crew of
*cooperating* workers that each hold one shard for the whole run and
exchange boundary traffic every synchronization round.  Routing those
rounds through the parent would double the per-round latency, so the
crew is wired all-to-all: every worker pair shares its own duplex pipe
and computes the next window barrier locally from what its peers sent.

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
import multiprocessing
import multiprocessing.connection
import time
import traceback
from itertools import combinations
from typing import Any, Dict, List, Optional

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

        crew = WorkerCrew(size=4, target="repro.shard.worker:shard_worker_main")
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
        for a, b in combinations(range(self.size), 2):
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
