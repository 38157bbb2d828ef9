"""Campaign execution: serial or across a process pool, cache-first.

``jobs=1`` runs trials in-process (no pickling requirements, the mode
the old serial runner maps onto).  ``jobs>1`` fans trials out over a
:class:`~concurrent.futures.ProcessPoolExecutor` with per-trial
timeouts, bounded retries when a worker crashes, and graceful Ctrl-C
shutdown.  Either way, trials whose content-addressed key is already in
the :class:`~repro.campaign.store.ResultStore` are served from cache,
which is what makes an interrupted campaign resumable.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.progress import CampaignProgress
from repro.campaign.spec import Campaign, TrialSpec, resolve_trial
from repro.campaign.store import ResultStore
from repro.sim.metrics import use_registry

#: Futures are polled this often so timeouts and Ctrl-C stay responsive.
_POLL_INTERVAL = 0.1


def _run_trial(trial: str, params: Dict[str, Any], seed: int) -> Tuple[Any, float, float]:
    """Execute one trial; module-level so worker processes can pickle it.

    Each trial runs inside its own metrics registry; whatever instruments
    the simulated stack registered come back attached to dict-shaped
    results under ``"metrics"`` (absent when the trial built no
    instrumented components, so metric-less trials are byte-identical to
    the pre-registry format and stay cache-compatible).
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    with use_registry() as registry:
        result = resolve_trial(trial)(dict(params), seed)
    if isinstance(result, dict) and not registry.empty:
        result["metrics"] = registry.snapshot()
    return result, time.perf_counter() - start, time.process_time() - cpu_start


@dataclass
class TrialOutcome:
    """What happened to one spec: done, cached, failed, timeout, pending."""

    spec: TrialSpec
    status: str
    result: Any = None
    error: Optional[str] = None
    elapsed: float = 0.0
    cpu_time: float = 0.0
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("done", "cached")


@dataclass
class CampaignReport:
    """All outcomes of one run, in spec order."""

    campaign: str
    outcomes: List[TrialOutcome] = field(default_factory=list)
    wall_time: float = 0.0
    cpu_time: float = 0.0
    interrupted: bool = False

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def done(self) -> int:
        return self.count("done")

    @property
    def cached(self) -> int:
        return self.count("cached")

    @property
    def failed(self) -> int:
        return sum(
            1 for o in self.outcomes if o.status in ("failed", "timeout")
        )

    @property
    def pending(self) -> int:
        return self.count("pending")

    @property
    def ok(self) -> bool:
        return not self.interrupted and all(o.ok for o in self.outcomes)

    def results(self) -> List[Tuple[Dict[str, Any], Any]]:
        """(params, result) for every successful trial, in spec order."""
        return [
            (dict(o.spec.params), o.result) for o in self.outcomes if o.ok
        ]


def run_campaign(
    campaign: Campaign,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    force: bool = False,
    progress: Optional[CampaignProgress] = None,
    max_trials: Optional[int] = None,
) -> CampaignReport:
    """Run ``campaign``, serving already-stored trials from cache.

    ``timeout`` bounds each trial's wall-clock seconds (enforced by
    worker replacement, so only with ``jobs > 1``); ``retries`` bounds
    re-submissions after a worker crash or trial exception;
    ``max_trials`` caps how many trials *execute* this call (the rest
    report ``pending``), which is how tests exercise partial runs.
    Ctrl-C stops cleanly: completed trials are already persisted, the
    report comes back with ``interrupted=True``.
    """
    specs = campaign.expand()
    progress = progress or CampaignProgress(campaign.name)
    progress.begin(len(specs), jobs=jobs)
    started = time.monotonic()

    outcomes: Dict[int, TrialOutcome] = {}
    pending: List[TrialSpec] = []
    for spec in specs:
        payload = None if (store is None or force) else store.get(spec.key)
        if payload is not None:
            outcomes[spec.index] = TrialOutcome(
                spec=spec,
                status="cached",
                result=payload["result"],
                elapsed=0.0,
                cpu_time=0.0,
            )
            progress.record(outcomes[spec.index])
        else:
            pending.append(spec)

    if max_trials is not None:
        for spec in pending[max_trials:]:
            outcomes[spec.index] = TrialOutcome(spec=spec, status="pending")
        pending = pending[:max_trials]

    def record(outcome: TrialOutcome) -> None:
        outcomes[outcome.spec.index] = outcome
        if outcome.status == "done" and store is not None:
            store.put(
                outcome.spec,
                outcome.result,
                meta={
                    "elapsed": outcome.elapsed,
                    "cpu": outcome.cpu_time,
                    "attempts": outcome.attempts,
                },
            )
        progress.record(outcome)

    interrupted = (
        _run_serial(pending, record, retries)
        if jobs <= 1
        else _run_pooled(pending, record, jobs, timeout, retries)
    )

    for spec in pending:
        if spec.index not in outcomes:
            outcomes[spec.index] = TrialOutcome(spec=spec, status="pending")

    progress.finish(interrupted=interrupted)
    return CampaignReport(
        campaign=campaign.name,
        outcomes=[outcomes[spec.index] for spec in specs],
        wall_time=time.monotonic() - started,
        cpu_time=progress.cpu_time,
        interrupted=interrupted,
    )


def _run_serial(pending, record, retries: int) -> bool:
    """In-process execution; returns True if interrupted."""
    for spec in pending:
        attempt = 0
        while True:
            attempt += 1
            try:
                result, elapsed, cpu = _run_trial(
                    spec.trial, dict(spec.params), spec.seed
                )
            except KeyboardInterrupt:
                return True
            except Exception:
                if attempt <= retries:
                    continue
                record(
                    TrialOutcome(
                        spec=spec,
                        status="failed",
                        error=traceback.format_exc(limit=3),
                        attempts=attempt,
                    )
                )
                break
            record(
                TrialOutcome(
                    spec=spec,
                    status="done",
                    result=result,
                    elapsed=elapsed,
                    cpu_time=cpu,
                    attempts=attempt,
                )
            )
            break
    return False


def _run_pooled(pending, record, jobs, timeout, retries) -> bool:
    """ProcessPoolExecutor execution; returns True if interrupted.

    Timeouts and worker crashes are handled by replacing the pool: a
    running future cannot be cancelled, so the stuck/poisoned executor
    is abandoned and survivors are resubmitted to a fresh one.
    """
    queue = deque((spec, 1) for spec in pending)
    executor = ProcessPoolExecutor(max_workers=jobs)
    inflight: Dict[Future, Tuple[TrialSpec, int, Optional[float]]] = {}
    interrupted = False
    try:
        while queue or inflight:
            while queue and len(inflight) < jobs:
                spec, attempt = queue.popleft()
                future = executor.submit(
                    _run_trial, spec.trial, dict(spec.params), spec.seed
                )
                deadline = (
                    time.monotonic() + timeout if timeout is not None else None
                )
                inflight[future] = (spec, attempt, deadline)
            done, _ = wait(
                set(inflight),
                timeout=_POLL_INTERVAL,
                return_when=FIRST_COMPLETED,
            )
            restart = False
            for future in done:
                spec, attempt, _deadline = inflight.pop(future)
                try:
                    result, elapsed, cpu = future.result()
                except BrokenProcessPool:
                    restart = True
                    if attempt <= retries:
                        queue.appendleft((spec, attempt + 1))
                    else:
                        record(
                            TrialOutcome(
                                spec=spec,
                                status="failed",
                                error="worker process crashed",
                                attempts=attempt,
                            )
                        )
                except Exception as exc:
                    if attempt <= retries:
                        queue.appendleft((spec, attempt + 1))
                    else:
                        record(
                            TrialOutcome(
                                spec=spec,
                                status="failed",
                                error=repr(exc),
                                attempts=attempt,
                            )
                        )
                else:
                    record(
                        TrialOutcome(
                            spec=spec,
                            status="done",
                            result=result,
                            elapsed=elapsed,
                            cpu_time=cpu,
                            attempts=attempt,
                        )
                    )
            now = time.monotonic()
            expired = [
                future
                for future, (_s, _a, deadline) in inflight.items()
                if deadline is not None and now > deadline
                and not future.done()  # a result beat the deadline check
            ]
            for future in expired:
                spec, attempt, _deadline = inflight.pop(future)
                record(
                    TrialOutcome(
                        spec=spec,
                        status="timeout",
                        error=f"trial exceeded {timeout}s",
                        attempts=attempt,
                    )
                )
                restart = True
            if restart:
                # Survivors keep their attempt count; they did not fail.
                for _future, (spec, attempt, _d) in inflight.items():
                    queue.appendleft((spec, attempt))
                inflight.clear()
                executor.shutdown(wait=False, cancel_futures=True)
                executor = ProcessPoolExecutor(max_workers=jobs)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        # Join workers on a clean finish; abandon them when interrupted
        # or when a timed-out trial is still running in one.
        executor.shutdown(wait=not interrupted and not inflight,
                          cancel_futures=True)
    return interrupted
