"""Campaign progress: counters, ETA, trace records, and a JSONL log.

Every trial outcome is emitted as a ``campaign.*`` record on a
:class:`~repro.sim.TraceBus` and, when a log path is given, appended to
a JSONL file in the same schema :mod:`repro.analysis.tracelog` writes —
so ``repro.analysis.load_trace`` / ``summarize_campaign`` consume
campaign logs exactly like simulator traces.  This is the "more
flexible logging" instrument the paper's Section 7 asked for, applied
to the experiment harness itself.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

from repro.sim import TraceBus
from repro.sim.trace import TraceRecord, record_line


class CampaignProgress:
    """Tracks trials done/failed/cached, wall vs CPU time, and ETA."""

    def __init__(
        self,
        campaign: str,
        log_path: Optional[Union[str, Path]] = None,
        echo: bool = False,
    ) -> None:
        self.campaign = campaign
        self.trace = TraceBus()
        self.echo = echo
        self._log: Optional[TextIO] = (
            Path(log_path).open("w") if log_path is not None else None
        )
        self.total = 0
        self.done = 0
        self.failed = 0
        self.cached = 0
        self.jobs = 1
        self.cpu_time = 0.0
        self.trial_wall_time = 0.0
        self._started = time.monotonic()

    # -- lifecycle ---------------------------------------------------

    def begin(self, total: int, jobs: int = 1) -> None:
        self._started = time.monotonic()
        self.total = total
        self.jobs = max(1, jobs)
        self._emit("campaign.begin", total=total, jobs=self.jobs)
        if self.echo:
            print(f"[{self.campaign}] {total} trials (jobs={self.jobs})")

    def record(self, outcome: "TrialOutcome") -> None:  # noqa: F821
        if outcome.status == "done":
            self.done += 1
        elif outcome.status == "cached":
            self.cached += 1
        else:
            self.failed += 1
        self.cpu_time += outcome.cpu_time
        self.trial_wall_time += outcome.elapsed
        self._emit(
            "campaign.trial",
            status=outcome.status,
            key=outcome.spec.key,
            index=outcome.spec.index,
            params=dict(outcome.spec.params),
            seed=outcome.spec.seed,
            elapsed=outcome.elapsed,
            cpu=outcome.cpu_time,
            attempts=outcome.attempts,
            error=outcome.error,
        )
        if self.echo and outcome.status != "cached":
            executed = self.done + self.failed
            pending = max(0, self.total - self.cached - executed)
            eta = self.eta()
            eta_text = f", eta {eta:.0f}s" if eta is not None else ""
            print(
                f"[{self.campaign}] {outcome.status:<7} "
                f"trial {outcome.spec.index} "
                f"({outcome.elapsed:.2f}s; {pending} pending{eta_text})"
            )

    def finish(self, interrupted: bool = False) -> None:
        self._emit("campaign.end", interrupted=interrupted, **self.snapshot())
        if self.echo:
            snap = self.snapshot()
            print(
                f"[{self.campaign}] done={snap['done']} "
                f"cached={snap['cached']} failed={snap['failed']} "
                f"pending={snap['pending']} "
                f"wall={snap['wall_time']:.2f}s cpu={snap['cpu_time']:.2f}s"
            )
        if self._log is not None:
            self._log.close()
            self._log = None

    # -- derived metrics ---------------------------------------------

    @property
    def wall_time(self) -> float:
        return time.monotonic() - self._started

    def eta(self) -> Optional[float]:
        """Seconds left, from the mean trial time over live workers."""
        executed = self.done + self.failed
        if executed == 0:
            return None
        pending = self.total - self.cached - executed
        if pending <= 0:
            return 0.0
        per_trial = self.trial_wall_time / executed
        return per_trial * pending / self.jobs

    def snapshot(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "cached": self.cached,
            "pending": max(
                0, self.total - self.cached - self.done - self.failed
            ),
            "wall_time": self.wall_time,
            "cpu_time": self.cpu_time,
        }

    # -- emission ----------------------------------------------------

    def _emit(self, category: str, **data: Any) -> None:
        now = self.wall_time
        self.trace.emit(now, category, None, **data)
        if self._log is not None:
            self._log.write(record_line(TraceRecord(now, category, None, data)))
            self._log.flush()
