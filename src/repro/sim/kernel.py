"""Event loop: a heap of timestamped callbacks with stable ordering.

Determinism matters for reproducing the paper's experiments, so event
ordering is an explicit total order ``(time, priority, seq)``: ties in
time are broken first by a small integer priority (lower runs first,
default 0) and then by a monotonically increasing sequence number, so
two events scheduled for the same instant at the same priority fire in
the order they were scheduled.  Priorities exist for callers that must
interleave externally-sourced events (e.g. cross-shard ghost
transmissions in :mod:`repro.shard`) ahead of same-instant local work;
they schedule at an absolute time (:meth:`Simulator.schedule_at`).
"""

from __future__ import annotations

import gc
import heapq
import itertools
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.sim.metrics import current_registry


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling into the past, etc.)."""


class KernelProfiler:
    """Event-loop profile: throughput, queue depth, per-site time.

    Sites are keyed by the event ``name`` (or the callback's qualified
    name when unnamed), so the report reads as "where did the wall
    clock go": ``csma.attempt``, ``channel.rx``, ``diffusion.sweep``...
    Attach with :meth:`Simulator.enable_profiler`; the run loop pays a
    perf-counter read per event only while a profiler is attached.
    """

    __slots__ = ("events", "busy_seconds", "max_queue_depth", "sites", "_started")

    def __init__(self) -> None:
        self.events = 0
        self.busy_seconds = 0.0
        self.max_queue_depth = 0
        # site -> [count, total wall seconds]
        self.sites: Dict[str, List[float]] = {}
        self._started = time.perf_counter()

    def record(self, site: str, elapsed: float) -> None:
        self.events += 1
        self.busy_seconds += elapsed
        entry = self.sites.get(site)
        if entry is None:
            self.sites[site] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed

    def note_depth(self, depth: int) -> None:
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    @property
    def wall_seconds(self) -> float:
        return time.perf_counter() - self._started

    @property
    def events_per_second(self) -> float:
        wall = self.wall_seconds
        return self.events / wall if wall > 0 else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe profile: totals plus sites sorted by time spent."""
        sites = [
            {
                "site": site,
                "count": int(count),
                "seconds": seconds,
                "mean_us": (seconds / count) * 1e6 if count else 0.0,
            }
            for site, (count, seconds) in sorted(
                self.sites.items(), key=lambda item: -item[1][1]
            )
        ]
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "events_per_second": self.events_per_second,
            "max_queue_depth": self.max_queue_depth,
            "sites": sites,
        }


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and may be cancelled.
    A cancelled event stays in the heap but is skipped when popped; the
    owning simulator counts cancellations and compacts the heap when
    they dominate it (lazy deletion with bounded garbage).
    """

    __slots__ = (
        "time", "seq", "priority", "callback", "args", "cancelled", "name",
        "_owner",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        name: str = "",
        owner: Optional["Simulator"] = None,
        priority: int = 0,
    ) -> None:
        self.time = time
        self.seq = seq
        self.priority = priority
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.name = name
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        # The heap itself orders (time, priority, seq, event) tuples so
        # comparisons run in C; this stays for direct Event sorting
        # (repro.shard heaps attempt events by the same key).
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        label = self.name or getattr(self.callback, "__name__", "?")
        return f"<Event t={self.time:.6f} {label} {state}>"


class Simulator:
    """A discrete-event simulator with cancellable timers.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, node.wake)
        sim.run(until=3600.0)
    """

    #: lazy-deletion bound: compact once cancelled events both exceed
    #: this floor and outnumber the live half of the heap.
    COMPACT_MIN_GARBAGE = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        # Heap entries are (time, priority, seq, event): the explicit
        # key tuple keeps every heap comparison in C instead of calling
        # Event.__lt__ (which allocates two tuples per comparison) —
        # seq is unique, so the event itself is never compared.
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._cancelled = 0          # cancelled events still in the heap
        self.cancelled_events = 0    # every cancel of a queued event
        self.events_processed = 0
        self.compactions = 0
        self._profiler: Optional[KernelProfiler] = None
        # Called with each freshly scheduled Event (repro.shard uses this
        # to track transmission-capable events for its lookahead promise).
        self._on_schedule: Optional[Callable[[Event], None]] = None
        # Queue health: the counters read the attributes above, and the
        # processed/pending gauges are settled once per run loop exit,
        # so the hot path pays nothing for them.
        registry = current_registry()
        registry.counter("kernel.compactions", lambda: self.compactions)
        registry.counter(
            "kernel.cancelled_events", lambda: self.cancelled_events
        )
        self._m_processed = registry.gauge("kernel.events_processed")
        self._m_pending = registry.gauge("kernel.pending_events")

    def enable_profiler(self) -> KernelProfiler:
        """Attach (or return the existing) event-loop profiler."""
        if self._profiler is None:
            self._profiler = KernelProfiler()
        return self._profiler

    @property
    def profiler(self) -> Optional[KernelProfiler]:
        return self._profiler

    def set_schedule_observer(
        self, observer: Optional[Callable[[Event], None]]
    ) -> None:
        """Install ``observer`` to be called with every scheduled event.

        One observer at most; pass None to remove.  The observer must
        not schedule or cancel events itself.
        """
        self._on_schedule = observer

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # ``not >=`` also refuses NaN, which fails every comparison: a
        # NaN time in the heap would break its order for every event.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = next(self._seq)
        when = self.now + delay
        # Positional construction: this is the hottest allocation in the
        # kernel, and keyword passing costs measurably at this volume.
        event = Event(when, seq, callback, args, name, self)
        heapq.heappush(self._heap, (when, 0, seq, event))
        if self._on_schedule is not None:
            self._on_schedule(event)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, args, name, self, priority)
        heapq.heappush(self._heap, (time, priority, seq, event))
        if self._on_schedule is not None:
            self._on_schedule(event)
        return event

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of uncancelled events still queued (O(1))."""
        return len(self._heap) - self._cancelled

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` the first time an event owned
        by this simulator is cancelled while still queued."""
        self._cancelled += 1
        self.cancelled_events += 1
        if (
            self._cancelled >= self.COMPACT_MIN_GARBAGE
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events (lazy deletion)."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def pending_events(self) -> Iterator[Event]:
        """Iterate over queued, uncancelled events in arbitrary order.

        For introspection (the shard runtime rebuilds its lookahead
        bookkeeping from this after a topology epoch change); callers
        must not mutate the queue while iterating.
        """
        for entry in self._heap:
            if not entry[3].cancelled:
                yield entry[3]

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        if not heap:
            return None
        return heap[0][0]

    def _pop_next(
        self, until: Optional[float], strict: bool = False
    ) -> Optional[Event]:
        """Pop and return the next live event at or before ``until``.

        Cancelled heap tops are discarded along the way.  Returns None
        when the queue is empty or the next live event lies beyond the
        horizon (that event stays queued).  With ``strict`` the horizon
        is exclusive: an event at exactly ``until`` stays queued.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if until is not None and (
                head[0] > until or (strict and head[0] == until)
            ):
                return None
            return heapq.heappop(heap)[3]
        return None

    def _dispatch(self, event: Event) -> None:
        """Advance the clock to ``event`` and run its callback."""
        if event.time < self.now:
            raise SimulationError("event heap corrupted: time went backwards")
        self.now = event.time
        self.events_processed += 1
        # The event has left the queue; a later cancel() must not skew
        # the lazy-deletion accounting.
        event._owner = None
        profiler = self._profiler
        if profiler is None:
            event.callback(*event.args)
        else:
            profiler.note_depth(len(self._heap) + 1)
            started = time.perf_counter()
            event.callback(*event.args)
            profiler.record(
                event.name or getattr(event.callback, "__qualname__", "?"),
                time.perf_counter() - started,
            )

    def step(self) -> bool:
        """Run a single event.  Returns False when the queue is empty."""
        event = self._pop_next(None)
        if event is None:
            return False
        self._dispatch(event)
        return True

    def _drain(
        self, until: Optional[float], strict: bool, max_events: Optional[int]
    ) -> int:
        """The run loop both :meth:`run` and :meth:`run_window` drive:
        dispatch live events up to ``until`` (exclusive with ``strict``)
        until none is left, :meth:`stop` is called or ``max_events`` have
        run; returns how many ran.

        Each iteration pops the heap exactly once.  The loop is not
        reentrant.  The cyclic collector is paused while it runs: event
        code makes no reference cycles, so its passes would free nothing,
        and the objects a run made are scanned by the first pass after
        it.  The queue gauges settle on every exit.
        """
        if self._running:
            raise SimulationError("the run loop is not reentrant")
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        self._running = True
        self._stopped = False
        processed = 0
        try:
            while not self._stopped:
                event = self._pop_next(until, strict)
                if event is None:
                    break
                self._dispatch(event)
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self._running = False
            if collecting:
                gc.enable()
            self._settle_gauges()
        return processed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order until the queue empties or limits hit.

        ``until`` is an inclusive horizon: events at exactly ``until`` run.
        When the horizon is reached (no live event at or before it is
        left) the clock is advanced to it, so that periodic statistics
        normalized by elapsed time are exact; a run cut short by
        ``max_events`` or :meth:`stop` leaves the clock at its last event.
        """
        self._drain(until, False, max_events)
        if until is not None and self.now < until and not self._stopped:
            following = self.peek_time()
            if following is None or following > until:
                self.now = until

    def run_window(
        self,
        horizon: float,
        inclusive: bool = False,
        advance_clock: bool = False,
    ) -> int:
        """Run events up to ``horizon`` and return how many were processed.

        This is the safe-window stepping API used by the sharded kernel
        (:mod:`repro.shard`): a conservative synchronizer computes a
        horizon no cross-shard influence can precede, then each shard
        drains its queue up to it.  The horizon is *exclusive* by
        default — an event at exactly ``horizon`` stays queued for the
        next window — because only the shard owning the globally
        earliest potential transmission may execute events at the
        horizon itself (``inclusive=True``).

        Unlike :meth:`run`, the clock is left at the last executed
        event so externally sourced events may still be injected
        anywhere inside ``[now, horizon]`` before the next window;
        ``advance_clock`` restores the :meth:`run` behaviour of
        settling the clock on the horizon (used for the final window).
        Both share one loop, :meth:`_drain`.
        """
        processed = self._drain(horizon, not inclusive, None)
        if advance_clock and self.now < horizon and not self._stopped:
            self.now = horizon
        return processed

    def _settle_gauges(self) -> None:
        """Publish queue health to the metrics registry.  Only a run
        loop's exit does this, so per-event cost is zero and a snapshot
        reads the queue as of the last exit."""
        self._m_processed.set(self.events_processed)
        self._m_pending.set(self.pending)
