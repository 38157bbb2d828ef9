"""Shard runtime: one spatial shard under conservative synchronization.

A :class:`ShardRuntime` owns one shard's :class:`~repro.sim.Simulator`
and :class:`~repro.radio.Channel`, built by a scenario for the shard's
owned node subset against the *global* topology.  Execution is a
sequence of rounds, and the round lives in one place:
:meth:`ShardRuntime.outgoing` says what to tell every peer,
:meth:`ShardRuntime.step` takes what the peers said and runs the next
window.  A transport only carries the messages — pipes between worker
processes (:func:`shard_worker_main`) or a list in one process
(:mod:`repro.shard.runner`) — so both execute the same protocol:

1. **Promise.**  The shard computes the earliest simulation time at
   which it could possibly start a transmission some foreign node
   hears.  Three terms, each a lower bound by the MAC timing contract
   (every ``channel.start_transmission`` happens inside a
   ``csma.attempt``/``csma.backoff`` event, and every new attempt is
   scheduled at least ``interframe_gap`` after its trigger):

   * the earliest queued attempt event of a *frontier* node (a node
     some foreign node can hear, per
     :class:`~repro.radio.neighborhood.BoundaryIndex`) — it may
     transmit at its own timestamp;
   * the earliest unexecuted topology move — after a move the frontier
     itself is stale, so no window may cross one (moves are globally
     pre-scheduled, so every shard promises the same barrier);
   * the earliest queued event of any kind plus the lookahead — any
     *other* event can only trigger an attempt at least one interframe
     gap later.

2. **Exchange.**  Shards swap ``(promise, term, outbox, done)``
   all-to-all.

3. **Inject.**  Foreign transmissions audible to some owned node are
   scheduled at their exact start times as ghost admissions
   (:meth:`~repro.radio.channel.Channel.admit_remote_transmission`)
   with priority ``-1`` so they precede same-instant local events.

4. **Window.**  Every shard runs to the one global horizon
   (:func:`next_horizon`: the earliest of *every* shard's promise — its
   own included — of every exported transmission's end of airtime plus
   the lookahead, and of the duration).  All shards compute it from the
   same messages, so they run the same slice of simulated time at once
   — exclusively, except the shard whose own promise *is* the horizon
   (then inclusively: it owns the earliest potential boundary
   transmission, and executing it is what guarantees global progress).
   Transmissions by frontier nodes are captured via the channel's
   ``on_transmission`` hook into the next outbox; when a move makes a
   node a frontier node, what it already has on the air joins them.

When the horizon reaches the trial duration a shard finishes with one
inclusive window, and keeps exchanging until every peer has finished.

The protocol is exact, not approximate: outcomes match the single-queue
oracle event-for-event, up to cross-shard events scheduled at exactly
equal floating-point times (jittered per-node delays make such ties
measure-zero; tests/test_shard_equivalence.py asserts exact equality on
seeded scenarios).
"""

from __future__ import annotations

import heapq
import itertools
import math
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import repro.core.messages as core_messages
from repro.mac import CsmaMac
from repro.radio.neighborhood import BoundaryIndex
from repro.shard.partition import partition_nodes
from repro.shard.scenario import ShardNet, get_scenario
from repro.sim.metrics import current_registry, use_registry

#: event names that may call ``channel.start_transmission`` at their own
#: timestamp; everything else can only do so one interframe gap later.
ATTEMPT_EVENTS = ("csma.attempt", "csma.backoff")

#: consecutive zero-progress rounds before the sync loop declares a
#: stall (a correct run executes at least one event globally per round).
STALL_LIMIT = 10_000


@dataclass(frozen=True)
class ShardPlan:
    """Everything a worker needs to build and run its shard."""

    scenario: str
    params: Dict[str, Any]
    seed: int
    duration: float
    shards: int

    @classmethod
    def named(
        cls,
        scenario: str,
        params: Dict[str, Any],
        seed: int,
        shards: int = 1,
        duration: Optional[float] = None,
    ) -> "ShardPlan":
        """The plan a user names (``repro run``, a campaign grid point):
        a key the scenario does not take is refused — a misspelt param
        would otherwise run the default under the wrong label — and the
        run lasts ``duration``, else ``params["duration"]``, else the
        scenario's default.  Fewer than one shard is refused, not read
        as the single queue."""
        if not shards >= 1:
            raise ValueError(f"shards must be at least 1, got {shards!r}")
        defaults = get_scenario(scenario).defaults
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise ValueError(
                f"{scenario} has no param {', '.join(unknown)}; "
                f"it takes: {', '.join(sorted(defaults))}"
            )
        if duration is None:
            duration = float(params.get("duration", defaults["duration"]))
        if not 0 < duration < math.inf:
            raise ValueError(f"duration must be positive, got {duration}")
        return cls(scenario, params, seed, duration, shards)

    def build_params(self) -> Dict[str, Any]:
        """``params`` as every build of this plan sees them: the run's
        ``duration`` is the default of ``params["duration"]``, so a
        workload's send schedule cannot stop short of the run."""
        return {"duration": self.duration, **self.params}


@dataclass(frozen=True)
class ExportedTx:
    """One boundary transmission crossing shards."""

    src: int
    start: float
    end: float
    nbytes: int
    payload: Any
    link_dst: Optional[int]


#: what a shard tells every peer each round: its promise, the term that
#: produced it, the boundary transmissions of its last window, and
#: whether it has run its final window.
Message = Tuple[float, str, List[ExportedTx], bool]


@dataclass
class ShardStats:
    """Per-shard accounting reported alongside the merged outcome."""

    rank: int
    owned: int
    rounds: int = 0
    events: int = 0
    exports: int = 0
    ghosts_admitted: int = 0
    ghosts_skipped: int = 0
    boundary_rebuilds: int = 0
    boundary_pair_checks: int = 0
    #: perf_counter seconds spent building and running windows — the
    #: shard's share of the critical path in inline mode.
    busy_seconds: float = 0.0
    #: process mode only: CPU seconds of the whole worker process,
    #: which excludes time blocked on peer pipes — the faithful
    #: per-shard work measure even on an oversubscribed host.
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: wall-clock seconds this shard spent waiting at the exchange
    #: barrier for slower peers (process mode: blocked in recv; inline
    #: mode: the round's slowest window minus this shard's own).
    stall_seconds: float = 0.0
    #: bytes of pickled promise/outbox payload sent to peers.
    exchange_bytes: int = 0
    #: window count by the promise term that bound each horizon —
    #: which of the conservative-sync bounds actually paces this shard
    #: ("attempt", "move", "lookahead", "export", "duration", "idle").
    windows_by_term: Dict[str, int] = field(default_factory=dict)
    #: windows that executed no event.  Shards that run the same slice
    #: of time together keep this a small share of ``rounds``; shards
    #: that take turns read about half.
    empty_windows: int = 0

    def as_dict(self) -> Dict[str, Any]:
        data = dict(vars(self))
        data["windows_by_term"] = dict(self.windows_by_term)
        return data


class ShardRuntime:
    """One shard's simulator plus the bookkeeping for its promises."""

    def __init__(self, plan: ShardPlan, rank: int) -> None:
        if not 0 <= rank < plan.shards:
            raise ValueError(f"rank {rank} outside 0..{plan.shards - 1}")
        build_start = time.perf_counter()
        self.plan = plan
        self.rank = rank
        scenario = get_scenario(plan.scenario)
        params = plan.build_params()
        topology = scenario.topology(params)
        self.owned: List[int] = partition_nodes(topology, plan.shards)[rank]
        self.net: ShardNet = scenario.build(
            topology, self.owned, params, plan.seed
        )
        self.sim = self.net.sim
        self.channel = self.net.channel
        self.stats = stats = ShardStats(rank=rank, owned=len(self.owned))
        registry = current_registry()
        self._registry = registry
        registry.counter("shard.rounds", lambda: stats.rounds, shard=rank)
        registry.counter("shard.exports", lambda: stats.exports, shard=rank)
        registry.counter(
            "shard.ghosts_admitted", lambda: stats.ghosts_admitted, shard=rank
        )
        registry.counter(
            "shard.exchange_bytes", lambda: stats.exchange_bytes, shard=rank
        )
        # Profiler instruments: window spans/sizes as distributions (the
        # p95 window span is what tells you whether sync overhead comes
        # from many tiny windows or a few stalls), plus per-term window
        # counts labeled so cross-shard merges keep shards separable.
        self._m_window_span = registry.histogram("shard.window_span", shard=rank)
        self._m_window_events = registry.histogram(
            "shard.window_events", shard=rank
        )
        self._m_stall = registry.gauge("shard.stall_seconds", shard=rank)

        # The MAC timing contract the promise terms rest on.
        lookaheads = []
        for node_id, mac in self.net.macs.items():
            if not isinstance(mac, CsmaMac):
                raise TypeError(
                    f"sharded execution requires CsmaMac everywhere; node "
                    f"{node_id} has {type(mac).__name__}"
                )
            lookaheads.append(min(mac.interframe_gap, mac.min_backoff))
        if not lookaheads:
            raise ValueError(f"shard {rank} built no MACs")
        self.lookahead = min(lookaheads)

        # Globally identical move schedule; priority -2 puts a move
        # ahead of any same-instant traffic (ghosts run at -1).
        self._move_events = [
            self.sim.schedule_at(
                t, self._apply_move, node, x, y,
                name="shard.move", priority=-2,
            )
            for t, node, x, y in sorted(
                scenario.move_schedule(params, topology)
            )
        ]

        self._outbox: List[ExportedTx] = []
        # Latest transmission of each owned sender, for re-announcing
        # what is on the air when a move grows the frontier.
        self._on_air: Dict[int, Any] = {}
        self._attempts: List[Tuple[float, int, Any]] = []
        # Round state, see step().
        self.done = False
        self._finalized = False
        self._promised: Tuple[float, str] = (math.inf, "idle")
        self._stalled = 0
        self._last_horizon = -math.inf
        if plan.shards > 1:
            owned_set = set(self.owned)
            foreign = [
                n for n in topology.node_ids() if n not in owned_set
            ]
            self.boundary: Optional[BoundaryIndex] = BoundaryIndex(
                self.net.propagation, self.owned, foreign, topology
            )
            self._frontier = self.boundary.boundary_senders()
            self._epoch = self.net.propagation.prr_epoch()
            self.channel.on_transmission = self._on_transmission
            self.sim.set_schedule_observer(self._on_schedule)
            # Catch attempts queued during construction.
            self._rebuild_attempts()
        else:
            self.boundary = None
            self._frontier = set()
        self.stats.busy_seconds += time.perf_counter() - build_start

    # -- hooks ----------------------------------------------------------------

    def _apply_move(self, node: int, x: float, y: float) -> None:
        self.net.topology.move_node(node, x, y)

    def _on_schedule(self, event) -> None:
        if event.name in ATTEMPT_EVENTS:
            mac = getattr(event.callback, "__self__", None)
            if mac is not None and mac.node_id in self._frontier:
                heapq.heappush(
                    self._attempts, (event.time, event.seq, event)
                )

    def _export(self, tx) -> None:
        self._outbox.append(
            ExportedTx(
                src=tx.src, start=tx.start, end=tx.end,
                nbytes=tx.nbytes, payload=tx.payload,
                link_dst=tx.link_dst,
            )
        )

    def _on_transmission(self, tx) -> None:
        self._on_air[tx.src] = tx
        if tx.src in self._frontier:
            # No window passes this shard's own promise, so this starts
            # at the window's horizon at the earliest: the foreign
            # reaction to it falls in a later window, never in this one.
            self._export(tx)

    def _rebuild_attempts(self) -> None:
        self._attempts = [
            (event.time, event.seq, event)
            for event in self.sim.pending_events()
            if event.name in ATTEMPT_EVENTS
            and getattr(event.callback, "__self__", None) is not None
            and event.callback.__self__.node_id in self._frontier
        ]
        heapq.heapify(self._attempts)

    def _refresh_boundary(self) -> None:
        """After a window: if geometry moved, recompute the frontier and
        rebuild the attempt bookkeeping (an interior node may have
        become audible across the cut, and its already-queued attempts
        must start counting).  What such a node has on the air was not
        exported when it keyed up, and a foreign listener the move just
        brought into range must sense its carrier: announce it now."""
        if self.boundary is None:
            return
        epoch = self.net.propagation.prr_epoch()
        if epoch == self._epoch:
            return
        self._epoch = epoch
        before = self._frontier
        self._frontier = self.boundary.boundary_senders()
        self._rebuild_attempts()
        now = self.sim.now
        for src in sorted(self._frontier - before):
            tx = self._on_air.get(src)
            if tx is not None and tx.end > now:
                self._export(tx)

    def _next_move(self) -> float:
        """Time of the earliest move this shard has not executed yet."""
        moves = self._move_events
        while moves and moves[0]._owner is None:
            moves.pop(0)
        return moves[0].time if moves else math.inf

    # -- protocol steps -------------------------------------------------------

    def promise(self) -> Tuple[float, str]:
        """Earliest time this shard could start a boundary transmission,
        plus which term produced it.

        The term names the bound that is actually pacing this shard's
        peers: ``"attempt"`` (a queued frontier attempt event),
        ``"move"`` (the next topology-move barrier), ``"lookahead"``
        (earliest queued event of any kind plus the MAC lookahead), or
        ``"idle"`` (empty queue — the promise is infinite).
        """
        attempts = self._attempts
        while attempts:
            _t, _seq, event = attempts[0]
            # _owner is cleared on dispatch, so this also drops entries
            # that already executed inside the last window.
            if event.cancelled or event._owner is None:
                heapq.heappop(attempts)
                continue
            break
        t_attempt = attempts[0][0] if attempts else math.inf
        t_move = self._next_move()
        peek = self.sim.peek_time()
        t_other = peek + self.lookahead if peek is not None else math.inf
        value = min(t_attempt, t_move, t_other)
        if value is math.inf:
            return value, "idle"
        # Tie-break in specificity order: a frontier attempt is a
        # sharper statement than the generic lookahead bound.
        if value == t_attempt:
            return value, "attempt"
        if value == t_move:
            return value, "move"
        return value, "lookahead"

    def inject(self, records: Iterable[ExportedTx]) -> None:
        """Schedule foreign transmissions as ghost admissions.

        A record nobody here can hear is skipped, unless a move still
        pending on this shard falls inside its airtime: the move may
        bring a listener into carrier range of it.  A record whose start
        is already behind this shard's clock is one a peer re-announced
        after a move (:meth:`_refresh_boundary`): no reception began
        here when it keyed up, so it is admitted as carrier only.
        """
        boundary = self.boundary
        if boundary is None:
            return
        now = self.sim.now
        next_move = self._next_move()
        for rec in records:
            if not boundary.listeners_across(rec.src) and next_move >= rec.end:
                self.stats.ghosts_skipped += 1
                continue
            if rec.start < now:
                self.channel.admit_remote_carrier(rec.src, rec.end)
            else:
                self.sim.schedule_at(
                    rec.start,
                    self.channel.admit_remote_transmission,
                    rec.src, rec.payload, rec.nbytes, rec.end - rec.start,
                    rec.link_dst,
                    name="shard.ghost", priority=-1,
                )
            self.stats.ghosts_admitted += 1

    def advance(
        self, horizon: float, inclusive: bool, final: bool, term: str
    ) -> None:
        """Run one window; its boundary transmissions land in the outbox.

        ``term`` names the promise term that bound ``horizon`` (from
        :func:`next_horizon`); the profiler attributes the window to it
        so a report can say *why* windows were the size they were.
        """
        span = max(0.0, horizon - self.sim.now)
        window_start = time.perf_counter()
        processed = self.sim.run_window(
            horizon, inclusive=inclusive, advance_clock=final
        )
        self.stats.busy_seconds += time.perf_counter() - window_start
        self.stats.rounds += 1
        self.stats.events += processed
        if not processed:
            self.stats.empty_windows += 1
        by_term = self.stats.windows_by_term
        if term not in by_term:
            by_term[term] = 0
            self._registry.counter(
                "shard.windows", lambda: by_term[term],
                shard=self.rank, term=term,
            )
        by_term[term] += 1
        self._m_window_span.observe(span)
        self._m_window_events.observe(processed)
        self._refresh_boundary()
        self.stats.exports += len(self._outbox)

    # -- the round ------------------------------------------------------------

    def outgoing(self) -> Message:
        """This round's message to every peer: ``(promise, term, outbox,
        done)``.  No shard assumes its peers finish in the round it
        does (the export bound uses the shard's own lookahead): a
        finished shard keeps announcing ``(inf, "idle", outbox, True)``
        — its final window's exports still matter to slower peers —
        until :attr:`done`."""
        self._promised = promise, term = (
            (math.inf, "idle") if self._finalized else self.promise()
        )
        return promise, term, self._outbox, self._finalized

    def step(self, received: Dict[int, Message]) -> None:
        """One round, given every peer's :meth:`outgoing` by rank: inject
        their outboxes in rank order, take the horizon, run the window.

        The horizon is the earliest of every promise of the round — the
        one this shard sent (listed first, so a window it binds carries
        its term) and the peers' — so every shard takes the same one.
        The promises were computed before this round's ghosts were
        injected anywhere; the export term of :func:`next_horizon`
        compensates.  The window is inclusive when this shard's own
        promise is the horizon: it owns the earliest potential boundary
        transmission, and executing it is what guarantees global
        progress.  A promise is never later than the shard's next move,
        so no window crosses one, and the move itself runs inclusively
        on every shard at once.  :attr:`done` turns true once this
        shard has finished and every peer has said the same, so no
        transport is ever left with a blocked reader.
        """
        # A copy: the list itself is in the message peers are reading.
        exports, self._outbox = list(self._outbox), []
        if self._finalized:
            self.done = all(m[3] for m in received.values())
            return
        promises = [self._promised]
        for peer in sorted(received):
            promise, term, outbox, _done = received[peer]
            promises.append((promise, term))
            exports.extend(outbox)
            self.inject(outbox)
        horizon, term = next_horizon(
            promises, exports, self.lookahead, self.plan.duration
        )
        final = horizon >= self.plan.duration
        if final or horizon != self._last_horizon or exports:
            self._stalled = 0
        else:
            self._stalled += 1
            if self._stalled > STALL_LIMIT:
                raise RuntimeError(
                    f"shard {self.rank}: conservative sync stalled at "
                    f"t={horizon}"
                )
        self._last_horizon = horizon
        self.advance(
            horizon, inclusive=final or self._promised[0] <= horizon,
            final=final, term=term,
        )
        self._finalized = final

    def result(self) -> Dict[str, Any]:
        """Outcome plus shard accounting, after the final window."""
        if self.boundary is not None:
            self.stats.boundary_rebuilds = self.boundary.rebuilds
            self.stats.boundary_pair_checks = self.boundary.pair_checks
        self._m_stall.set(self.stats.stall_seconds)
        return {
            "outcome": self.net.outcome(),
            "stats": self.stats.as_dict(),
        }


def next_horizon(
    promises: Iterable[Tuple[float, str]],
    exports: Iterable[ExportedTx],
    lookahead: float,
    duration: float,
) -> Tuple[float, str]:
    """The round's window horizon — the lower bound on the time stamp of
    any boundary transmission not yet announced — and *which term bound
    it*.

    ``promises`` holds every shard's promise of the round, the calling
    shard's own included, so all shards take the same horizon from the
    same all-to-all messages and run the same slice of simulated time
    concurrently.  (Leaving the own promise out lets the shard that is
    behind run up to its peer's promise, one lookahead past the peer's
    clock; next round the peer leapfrogs it by the same rule, and the
    shard in front never has an event inside its window: the crew takes
    turns, and wall time is the *sum* of the shards' busy time.)

    The export term covers influence announced but not yet reacted to:
    promises in this round's messages were computed before this round's
    ghosts were injected anywhere, and a ghost cannot trigger a
    downstream transmission before its airtime ends plus one lookahead.

    ``promises`` carries ``(value, term)`` pairs as produced by
    :meth:`ShardRuntime.promise`, so when a promise wins, the
    attribution names that shard's own binding term ("attempt", "move",
    "lookahead") rather than an opaque "peer".  The two extra outcomes
    are ``"export"`` (an in-flight boundary transmission bounds the
    window) and ``"duration"`` (nothing constrains any shard before the
    end of the trial — the free-running case).  Ties resolve toward
    the earlier-listed constraint, matching min() semantics.
    """
    horizon = duration
    term = "duration"
    for p, p_term in promises:
        if p < horizon:
            horizon = p
            term = p_term
    for rec in exports:
        bound = rec.end + lookahead
        if bound < horizon:
            horizon = bound
            term = "export"
    return horizon, term


def shard_worker_main(rank, size, peers, plan: ShardPlan):
    """:class:`~repro.campaign.workers.WorkerCrew` entry point: drive
    :meth:`ShardRuntime.step` over all-to-all peer pipes; there is no
    coordinator on the hot path.
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
