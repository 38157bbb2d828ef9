"""Metrics registry: counters and histograms.

The paper's testbed could only answer "what happened" questions by
grepping logs collected over a second wired network (Section 7).  The
trace bus answers *event*-shaped questions; this module answers
*aggregate*-shaped ones: how many fragments collided, how deep did MAC
queues get, how many messages were dropped for want of a route, and
where the tail of a distribution sits (:class:`Histogram` streaming
p50/p95/p99).

Design rules, mirroring :meth:`TraceBus.emit`:

* **Counters are read back, never counted twice.**  Every count the
  registry reports is already an attribute of the layer that counts it
  (``MacStats.enqueued``, ``Channel.fragments_sent``, ...).  A component
  registers a zero-argument *reader* of that attribute once, at
  construction (:meth:`MetricsRegistry.counter`), and
  :meth:`MetricsRegistry.snapshot` reports each counter as the sum of
  its readers.  The hot path pays nothing for a counter, with or
  without a registry, and a source never runs backwards.
* **Only a distribution is an instrument.**  A :class:`Histogram`'s
  quantiles cannot be read back from a total, so a histogram stays an
  object the hot path updates.  A point value (a queue's length, a
  run's delivery ratio) is not an instrument: its layer or the run's
  outcome already holds it.  Outside a :func:`use_registry` block
  :func:`current_registry` returns the disabled :data:`NULL_REGISTRY`,
  which ignores reader registrations and hands out one shared no-op
  histogram — its ``observe`` is the only metric call an unmetered run
  makes.
* **Names are keyed by (name, labels)**, so every node of a network
  registers under the same counter and snapshots stay compact.
* **Snapshots are plain JSON.**  :meth:`MetricsRegistry.snapshot`
  returns nested dicts of numbers, which is what lets campaign trials
  carry structured metrics instead of ad-hoc result keys
  (:mod:`repro.campaign.pool` attaches one per executed trial).
* **No randomness, no wall clock.**  Every estimator here is a pure
  function of the observed sequence (the quantile sketch is the P²
  algorithm, not a sampling reservoir), so enabling telemetry never
  perturbs a seeded simulation — the equivalence suites hold
  bit-identical with a registry installed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


#: canonical label key for per-message-class counter families
#: (``diffusion.tx.messages{class=interest}`` and friends).  The
#: diffusion core and the trace tooling share this constant so per-class
#: traffic accounting groups consistently across snapshots and reports.
CLASS_LABEL = "class"

#: the message-class label values the diffusion core emits.  Both
#: reinforcement polarities share one class (they are the same control
#: function); ``control`` covers election/hierarchy announcements.
MESSAGE_CLASSES = (
    "interest",
    "data",
    "exploratory",
    "reinforcement",
    "control",
)


def _flat_name(name: str, labels: Dict[str, Any]) -> str:
    """``name{k=v,...}`` with labels sorted, or bare ``name``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _P2Quantile:
    """One streaming quantile via the P² algorithm (Jain & Chlamtac).

    Five markers adjust toward the target quantile with O(1) memory and
    a handful of float ops per observation — and, critically for the
    seeded equivalence suites, no randomness: the estimate is a pure
    function of the observed sequence.
    """

    __slots__ = ("p", "_q", "_n", "_count")

    def __init__(self, p: float) -> None:
        self.p = p
        self._q: List[float] = []   # marker heights
        self._n: List[float] = []   # marker positions (1-based)
        self._count = 0

    def observe(self, x: float) -> None:
        self._count += 1
        if self._count <= 5:
            self._q.append(x)
            if self._count == 5:
                self._q.sort()
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
            return
        q, n, p = self._q, self._n, self.p
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        count = self._count
        desired = (
            1.0,
            1.0 + (count - 1) * p / 2.0,
            1.0 + (count - 1) * p,
            1.0 + (count - 1) * (1.0 + p) / 2.0,
            float(count),
        )
        for i in (1, 2, 3):
            delta = desired[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if delta > 0 else -1.0
                # Piecewise-parabolic prediction of the marker height.
                candidate = q[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d)
                    * (q[i + 1] - q[i])
                    / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d)
                    * (q[i] - q[i - 1])
                    / (n[i] - n[i - 1])
                )
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:  # parabola left the bracket: fall back to linear
                    j = i + (1 if d > 0 else -1)
                    q[i] = q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
                n[i] += d

    @property
    def value(self) -> Optional[float]:
        if self._count == 0:
            return None
        if self._count < 5:
            ordered = sorted(self._q)
            # Nearest-rank on the few samples we have.
            rank = max(0, min(len(ordered) - 1, int(self.p * len(ordered))))
            return ordered[rank]
        return self._q[2]


#: the streaming quantiles every histogram tracks.
QUANTILES: Tuple[float, ...] = (0.50, 0.95, 0.99)


class Histogram:
    """Streaming distribution summary: moments plus P² tail quantiles.

    Keeping only moments and five-marker quantile sketches makes
    ``observe`` O(1) and the snapshot a fixed-size dict, which matters
    when one histogram sees every MAC enqueue of a long run.  The
    quantiles (p50/p95/p99) are what the latency-shaped questions need
    — a mean hides exactly the tail the gateway work cares about.
    """

    __slots__ = ("count", "total", "min", "max", "_quantiles")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._quantiles = tuple(_P2Quantile(p) for p in QUANTILES)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for sketch in self._quantiles:
            sketch.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, p: float) -> Optional[float]:
        """The streaming estimate for one of :data:`QUANTILES`."""
        for sketch in self._quantiles:
            if sketch.p == p:
                return sketch.value
        raise ValueError(f"no sketch tracks p={p} (have {QUANTILES})")

    @property
    def p50(self) -> Optional[float]:
        return self._quantiles[0].value

    @property
    def p95(self) -> Optional[float]:
        return self._quantiles[1].value

    @property
    def p99(self) -> Optional[float]:
        return self._quantiles[2].value


class _NullInstrument:
    """Shared do-nothing stand-in handed out by a disabled registry."""

    __slots__ = ()
    count = 0
    total = 0.0
    mean = 0.0
    min = None
    max = None
    p50 = None
    p95 = None
    p99 = None

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


#: a counter's source: returns the count so far, and never less than
#: it returned before.
Reader = Callable[[], int]


def _constant(value: int) -> Reader:
    return lambda: value


class MetricsRegistry:
    """Counter readers plus histograms, each keyed by (name, sorted
    labels)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, List[Reader]] = {}
        self._histograms: Dict[str, Histogram] = {}

    def __bool__(self) -> bool:
        return self.enabled

    @property
    def empty(self) -> bool:
        return not (self._counters or self._histograms)

    def counter(self, name: str, read: Reader, **labels: Any) -> None:
        """Register ``read`` under the counter ``name{labels}``, whose
        value is the sum of every reader registered under it (ignored
        when disabled)."""
        if self.enabled:
            key = _flat_name(name, labels)
            self._counters.setdefault(key, []).append(read)

    def _counter_values(self) -> Dict[str, int]:
        """Every counter's current value, by flat name."""
        return {
            name: sum(read() for read in readers)
            for name, readers in self._counters.items()
        }

    def histogram(self, name: str, **labels: Any) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        return self._histograms.setdefault(_flat_name(name, labels), Histogram())

    def snapshot(self) -> Dict[str, Any]:
        """All instrument values as plain JSON-safe nested dicts."""
        return {
            "counters": dict(sorted(self._counter_values().items())),
            "histograms": {
                name: {
                    "count": hist.count,
                    "sum": hist.total,
                    "mean": hist.mean,
                    "min": hist.min,
                    "max": hist.max,
                    "p50": hist.p50,
                    "p95": hist.p95,
                    "p99": hist.p99,
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict from another registry into this
        one — the bridge that carries shard-worker metrics back into the
        parent process (process-transport runs used to lose them all).

        Semantics per instrument kind:

        * counters add (the incoming total becomes one more reader);
        * histograms add counts and sums, fold extrema, and combine
          quantile estimates as a count-weighted mean — approximate,
          since P² sketches cannot be merged exactly, but per-shard
          instruments carry ``shard=`` labels so cross-shard merging of
          one histogram only happens for deliberately global names.
        """
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self._counters.setdefault(name, []).append(_constant(value))
        for name, entry in snapshot.get("histograms", {}).items():
            hist = self._histograms.setdefault(name, Histogram())
            incoming_count = entry.get("count", 0)
            if not incoming_count:
                continue
            for i, key in enumerate(("p50", "p95", "p99")):
                estimate = entry.get(key)
                if estimate is None:
                    continue
                sketch = hist._quantiles[i]
                own = sketch.value
                merged_count = hist.count + incoming_count
                blended = (
                    estimate
                    if own is None
                    else (own * hist.count + estimate * incoming_count)
                    / merged_count
                )
                # Re-seat the sketch on the blended estimate: further
                # observations keep adjusting from there.  The count is
                # clamped to 5 so the sketch never re-enters its
                # seeding branch (markers are already placed).
                count_eff = max(merged_count, 5)
                fresh = _P2Quantile(sketch.p)
                fresh._count = count_eff
                fresh._q = [
                    hist.min if hist.min is not None else blended,
                    blended, blended, blended,
                    hist.max if hist.max is not None else blended,
                ]
                mid = 1.0 + (count_eff - 1) * sketch.p
                fresh._n = [1.0, max(2.0, mid - 1), max(3.0, mid),
                            max(4.0, mid + 1), float(count_eff)]
                hist._quantiles = (
                    hist._quantiles[:i] + (fresh,) + hist._quantiles[i + 1:]
                )
            hist.count += incoming_count
            hist.total += entry.get("sum", 0.0)
            for attr, fold in (("min", min), ("max", max)):
                incoming = entry.get(attr)
                if incoming is None:
                    continue
                current = getattr(hist, attr)
                setattr(
                    hist, attr,
                    incoming if current is None else fold(current, incoming),
                )

    def format(self) -> str:
        """A human-readable dump, one instrument per line."""
        lines: List[str] = []
        for name, value in sorted(self._counter_values().items()):
            lines.append(f"{name:<44} {value}")
        for name, hist in sorted(self._histograms.items()):
            p95 = hist.p95
            lines.append(
                f"{name:<44} n={hist.count} mean={hist.mean:.3f} "
                f"min={hist.min} max={hist.max}"
                + (f" p50={hist.p50:.3f} p95={p95:.3f}" if p95 is not None
                   else "")
            )
        return "\n".join(lines)


#: the disabled registry components fall back to when none is active
NULL_REGISTRY = MetricsRegistry(enabled=False)

_active: List[MetricsRegistry] = []


def current_registry() -> MetricsRegistry:
    """The innermost :func:`use_registry` registry, or the null one."""
    return _active[-1] if _active else NULL_REGISTRY


@contextmanager
def use_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Install ``registry`` (a fresh one by default) as the collection
    target for components constructed inside the block."""
    registry = registry if registry is not None else MetricsRegistry()
    _active.append(registry)
    try:
        yield registry
    finally:
        _active.pop()
