"""Trace logging and offline inspection.

Paper Section 7: the testbed needed "more flexible logging" and better
"analysis tools for these networks"; its authors ran a second, wired
network just to collect experiment data.  This module is that
instrumentation path for the simulator: persist every trace record as
JSON lines, load them back, and summarize a run offline.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.sim import TraceBus, TraceRecord
from repro.sim.trace import record_line


class TraceLogger:
    """Streams trace records to a JSONL file.

    Usable as a context manager: on exit the logger unsubscribes from
    the bus (returning ``emit`` to its cheap no-listener path) and
    flushes and closes the file, so every record survives even when the
    recording process is about to die.
    """

    def __init__(self, bus: TraceBus, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.records_written = 0
        self._handle = self.path.open("w")
        self._bus: Optional[TraceBus] = bus
        bus.subscribe("*", self._on_record)

    def _on_record(self, record: TraceRecord) -> None:
        self.records_written += 1
        self._handle.write(record_line(record))

    def close(self) -> None:
        """Stop recording: unsubscribe, flush, and close the file."""
        if self._bus is not None:
            self._bus.unsubscribe("*", self._on_record)
            self._bus = None
        self._handle.close()  # flushes; a second close is a no-op

    def __enter__(self) -> "TraceLogger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read a JSONL trace back into records.

    A truncated final line (the writer died mid-record) is silently
    dropped; a malformed line anywhere else, or a line that is not a
    record, is a ``ValueError`` naming its line number.
    """
    records = []
    with Path(path).open() as handle:
        lines = [line.strip() for line in handle]
    while lines and not lines[-1]:
        lines.pop()
    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            raw = json.loads(line)
        except ValueError as exc:
            if lineno == len(lines):
                break
            raise ValueError(f"line {lineno}: {exc}") from None
        if not (isinstance(raw, dict) and "t" in raw and "cat" in raw):
            raise ValueError(f"line {lineno}: not a trace record")
        records.append(
            TraceRecord(
                time=raw["t"],
                category=raw["cat"],
                node=raw.get("node"),
                data=raw.get("data", {}),
            )
        )
    return records


@dataclass
class TraceSummary:
    """Run-level statistics derived from a trace."""

    record_count: int = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None
    by_category: Dict[str, int] = field(default_factory=dict)
    tx_bytes_by_node: Dict[int, int] = field(default_factory=dict)
    #: transmissions split by message class (interest / data /
    #: exploratory / reinforcement / control) — the split the hierarchy
    #: ablation reports, recoverable from any recorded run.
    tx_by_class: Dict[str, int] = field(default_factory=dict)
    tx_bytes_by_class: Dict[str, int] = field(default_factory=dict)
    collisions_by_node: Dict[int, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time


@dataclass
class CampaignSummary:
    """Campaign-level statistics derived from a ``campaign.*`` JSONL log."""

    trials: int = 0
    done: int = 0
    failed: int = 0
    cached: int = 0
    wall_time: float = 0.0
    cpu_time: float = 0.0
    interrupted: bool = False
    trial_seconds: Dict[int, float] = field(default_factory=dict)

    @property
    def executed(self) -> int:
        return self.done + self.failed


def summarize_campaign(records: Iterable[TraceRecord]) -> CampaignSummary:
    """Fold a :mod:`repro.campaign` progress log (read back through
    :func:`load_trace`) into run-level statistics."""
    summary = CampaignSummary()
    for record in records:
        if record.category == "campaign.begin":
            summary.trials = record.data.get("total", 0)
        elif record.category == "campaign.trial":
            status = record.data.get("status")
            if status == "done":
                summary.done += 1
            elif status == "cached":
                summary.cached += 1
            else:
                summary.failed += 1
            index = record.data.get("index")
            if index is not None:
                summary.trial_seconds[index] = record.data.get("elapsed", 0.0)
        elif record.category == "campaign.end":
            summary.wall_time = record.data.get("wall_time", record.time)
            summary.cpu_time = record.data.get("cpu_time", 0.0)
            summary.interrupted = bool(record.data.get("interrupted"))
    return summary


def summarize_trace(records: Iterable[TraceRecord]) -> TraceSummary:
    """The offline analysis Section 7 wished for: per-node traffic and
    collision hot spots from a recorded run."""
    from repro.core.node import MESSAGE_CLASS_LABELS

    class_of = {t.name: label for t, label in MESSAGE_CLASS_LABELS.items()}
    summary = TraceSummary()
    categories: Counter = Counter()
    tx_bytes: Dict[int, int] = defaultdict(int)
    tx_class: Counter = Counter()
    tx_class_bytes: Counter = Counter()
    collisions: Dict[int, int] = defaultdict(int)
    for record in records:
        summary.record_count += 1
        if summary.first_time is None or record.time < summary.first_time:
            summary.first_time = record.time
        if summary.last_time is None or record.time > summary.last_time:
            summary.last_time = record.time
        categories[record.category] += 1
        if record.category == "diffusion.tx" and record.node is not None:
            nbytes = record.data.get("nbytes", 0)
            tx_bytes[record.node] += nbytes
            label = class_of.get(record.data.get("msg_type"))
            if label is not None:
                tx_class[label] += 1
                tx_class_bytes[label] += nbytes
        if record.category == "channel.collision" and record.node is not None:
            collisions[record.node] += 1
    summary.by_category = dict(categories)
    summary.tx_bytes_by_node = dict(tx_bytes)
    summary.tx_by_class = dict(tx_class)
    summary.tx_bytes_by_class = dict(tx_class_bytes)
    summary.collisions_by_node = dict(collisions)
    return summary
