"""The shared wireless medium.

A fragment transmitted by one modem is audible at every node whose link
PRR from the sender is non-zero.  Reception fails when:

* the receiver was itself transmitting (half-duplex),
* another audible transmission overlapped in time (collision — this is
  how hidden terminals corrupt traffic: carrier sense happens at the
  *sender*, collisions happen at the *receiver*), or
* the per-link loss draw exceeded the link PRR.  The draw is a hash
  of (seed, src, dst, airtime start), so a verdict does not depend on
  the order receptions finalize in — any shard layout gets the same.

The channel also answers carrier-sense queries for the MAC layer.

Delivery and carrier sense never scan the whole network: a fragment
visits only the sender's cached receiver lanes, carrier sense looks up
the exact PRR only of transmitters that are both on the air and in the
listener's cached carrier-source set (a ghost's — another shard's —
only where the model's bound says it can be heard), and all of a
fragment's receptions get their verdict in one loop of one simulator
event (:mod:`repro.radio.neighborhood` holds the caches and their
invalidation contract).  A sender's lanes, ``(node_id, modem,
in_progress, prr, key, cut)`` per receiver with a non-zero PRR in
attach order (:meth:`Channel._lane`), are reused while the index
returns the very audibility list they were built from (it replaces
the list on any move, attach, detach, table edit, cut or new index)
and no PRR window of the sender's links has closed (a Gilbert–Elliot
flip).  The original O(N) per-link scan
survives as :class:`repro.radio.reference.ReferenceChannel`, a subclass
that replaces only how receivers and PRRs are found and runs the same
verdict loop one reception at a time; tests/test_channel_equivalence.py
proves the two verdict-identical on seeded scenarios.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Set

from repro.radio.neighborhood import NeighborhoodIndex
from repro.sim import Simulator, TraceBus, trace_id_of
from repro.sim.metrics import current_registry
from repro.sim.rng import MASK64, SeedSequence, derive_seed, splitmix64


class Transmission:
    """One in-flight fragment (``link_dst`` None for link-broadcast).

    A positional ``__slots__`` record: one is built per fragment.
    """

    __slots__ = ("src", "start", "end", "payload", "nbytes", "link_dst", "seqno")

    def __init__(
        self,
        src: int,
        start: float,
        end: float,
        payload: Any,
        nbytes: int,
        link_dst: Optional[int],
        seqno: int,
    ) -> None:
        self.src = src
        self.start = start
        self.end = end
        self.payload = payload
        self.nbytes = nbytes
        self.link_dst = link_dst
        self.seqno = seqno


class Channel:
    """Connects modems through a propagation model.

    Modems register with :meth:`attach`; they call
    :meth:`start_transmission` when the MAC begins sending, and receive
    ``deliver(payload, src, nbytes, link_dst)`` callbacks when a
    fragment arrives intact.
    """

    CARRIER_SENSE_THRESHOLD = 0.05  # audible-enough PRR to count as busy

    #: capture effect: a reception this strong survives overlap with
    #: interferers weaker than CAPTURE_WEAK (the stronger signal wins,
    #: as on real narrowband FM radios).  Comparable signals still
    #: destroy each other.
    CAPTURE_STRONG = 0.75
    CAPTURE_WEAK = 0.25

    def __init__(
        self,
        sim: Simulator,
        propagation,
        seeds: Optional[SeedSequence] = None,
        trace: Optional[TraceBus] = None,
    ) -> None:
        self.sim = sim
        self.trace = trace or TraceBus()
        seeds = seeds or SeedSequence(1)
        self._loss_seed = derive_seed(seeds.root_seed, "channel-loss-hash")
        self._modems: Dict[int, Any] = {}
        # Per-receiver in-progress receptions keyed by transmission
        # seqno, for collision marking and O(1) completion.  A
        # reception is the plain list ``[prr, reason, tx]`` (one per
        # audible lane per fragment, so no constructor runs): ``reason``
        # is None while it is clean, else why it failed ("collision",
        # "half-duplex", "detached").
        self._receiving: Dict[int, Dict[int, list]] = {}
        # Sender -> (the audibility list its receiver lanes came from,
        # the earliest PRR-window expiry among its links, the lanes).
        self._lanes: Dict[int, tuple] = {}
        # Active-transmitter registry: exactly the attached modems with
        # ``transmitting`` set.  Entered by start_transmission and by
        # attach (a modem re-attached mid-airtime), left by
        # transmission_ended and detach.
        self._active: Set[int] = set()
        # Ghost transmissions admitted from other shards: src ->
        # Transmission still on the air.  A remote sender has no local
        # modem, so its airtime is tracked here for carrier sense and
        # removed by a scheduled end event (plus a lazy end-time purge).
        self._remote_active: Dict[int, Transmission] = {}
        self._ghost_seqno = 0
        # Called with each local Transmission as it starts; the shard
        # worker exports boundary transmissions through this.
        self.on_transmission: Optional[Callable[[Transmission], None]] = None
        self.set_propagation(propagation)
        self._seqno = 0
        # Statistics.  ``fragments_collided`` counts receptions marked
        # corrupt by an overlap as it starts; the dropped_* pair counts
        # corrupt receptions as their airtime ends, by reason.
        self.fragments_sent = 0
        self.fragments_delivered = 0
        self.fragments_collided = 0
        self.fragments_lost = 0
        self.dropped_collision = 0
        self.dropped_half_duplex = 0
        registry = current_registry()
        if registry:
            registry.counter(
                "channel.fragments_sent", lambda: self.fragments_sent
            )
            registry.counter(
                "channel.fragments_delivered", lambda: self.fragments_delivered
            )
            registry.counter(
                "channel.drops", lambda: self.dropped_collision,
                reason="collision",
            )
            registry.counter(
                "channel.drops", lambda: self.dropped_half_duplex,
                reason="half-duplex",
            )
            registry.counter(
                "channel.drops", lambda: self.fragments_lost,
                reason="channel-loss",
            )
        # Carrier-sense cost accounting: links examined per query — one
        # per (source, listener) PRR actually looked up here, N in the
        # reference scan (tests/test_channel_equivalence.py::
        # TestBeaconFlood asserts both).
        self.carrier_queries = 0
        self.carrier_checks = 0

    def set_propagation(self, propagation) -> None:
        """Put ``propagation`` under the channel, with a fresh
        neighborhood index over the attached modems (the fault overlay
        splices itself in this way after the network is built)."""
        self.propagation = propagation
        self.index = NeighborhoodIndex(propagation, self.CARRIER_SENSE_THRESHOLD)
        for node_id in self._modems:
            self.index.add_node(node_id)

    def attach(self, modem: Any) -> None:
        if modem.node_id in self._modems:
            raise ValueError(f"modem {modem.node_id} already attached")
        self._modems[modem.node_id] = modem
        # Pre-create the in-progress map so the admission hot path can
        # index it unconditionally (detach pops it, voiding receptions).
        self._receiving.setdefault(modem.node_id, {})
        if modem.transmitting:
            # Back within one airtime of its detach: still keyed up.
            self._active.add(modem.node_id)
        self._member_added(modem.node_id)

    def detach(self, node_id: int) -> Any:
        """Remove a node from the medium (death, decommissioning).

        Pending receptions at the node are voided, its in-flight
        transmission (if any) leaves the active registry, and it drops
        out of every audibility and carrier-sense set — a dead node is
        never scanned again.  Returns the detached modem; re-attach it
        to model recovery.
        """
        modem = self._modems.pop(node_id, None)
        if modem is None:
            raise ValueError(f"modem {node_id} is not attached")
        self._active.discard(node_id)
        pending = self._receiving.pop(node_id, None)
        if pending:
            for reception in pending.values():
                reception[1] = "detached"
        self._member_removed(node_id)
        return modem

    def _member_added(self, node_id: int) -> None:
        self.index.add_node(node_id)

    def _member_removed(self, node_id: int) -> None:
        self.index.remove_node(node_id)

    def transmission_ended(self, src: int) -> None:
        """Modem callback: ``src``'s fragment finished its airtime."""
        self._active.discard(src)

    def node_ids(self) -> List[int]:
        return sorted(self._modems)

    # -- carrier sense ------------------------------------------------------

    def carrier_busy(self, node_id: int) -> bool:
        """Is any transmission audible at ``node_id`` right now?"""
        self.carrier_queries += 1
        now = self.sim.now
        index = self.index
        index.sync()
        prr_memo = index.prr_memo
        busy = False
        active = self._active
        if active:
            # Set intersection walks the smaller side and probes the
            # other, so only transmitters this listener may hear get
            # their PRR looked up.
            sources = index.carrier_sets.get(node_id)
            if sources is None:
                sources = index.carrier_sources(node_id)
            for src in active & sources:
                self.carrier_checks += 1
                # Inline memo hit (nothing in this loop can move the
                # epoch); misses fall back to the full windowed lookup.
                cached = prr_memo.get((src, node_id))
                if cached is not None and now < cached[1]:
                    index.memo_hits += 1
                    prr = cached[0]
                else:
                    prr = index.link_prr(src, node_id, now)
                if prr >= self.CARRIER_SENSE_THRESHOLD:
                    busy = True
                    break
        if not busy and self._remote_active:
            bound = self.propagation.link_prr_bound
            for src, tx in list(self._remote_active.items()):
                if tx.end <= now:
                    del self._remote_active[src]
                    continue
                cached = prr_memo.get((src, node_id))
                if cached is not None and now < cached[1]:
                    index.memo_hits += 1
                    prr = cached[0]
                elif bound(src, node_id) < self.CARRIER_SENSE_THRESHOLD:
                    # A ghost sits in no carrier-source set, so the
                    # bound those sets are built from is asked here:
                    # a listener out of its reach (most of the shard)
                    # costs no exact lookup and leaves no memo entry.
                    continue
                else:
                    prr = index.link_prr(src, node_id, now)
                self.carrier_checks += 1
                if prr >= self.CARRIER_SENSE_THRESHOLD:
                    busy = True
                    break
        return busy

    # -- transmission -------------------------------------------------------

    def start_transmission(
        self,
        src: int,
        payload: Any,
        nbytes: int,
        duration: float,
        link_dst: Optional[int] = None,
        on_end: Optional[Callable[[], None]] = None,
    ) -> Transmission:
        """Begin a fragment transmission from ``src``.

        The caller (modem) is responsible for keeping its
        ``transmitting`` flag true for the duration; ``on_end`` runs
        when the airtime ends, after every reception of the fragment
        has been finalized and in the same kernel event.
        """
        now = self.sim.now
        self._seqno += 1
        tx = Transmission(
            src, now, now + duration, payload, nbytes, link_dst, self._seqno
        )
        self.fragments_sent += 1
        if self.trace.active:
            self.trace.emit(
                now, "channel.tx", node=src, nbytes=nbytes, dst=link_dst
            )
        if self.on_transmission is not None:
            self.on_transmission(tx)
        if src in self._modems:  # a detached radio asserts no carrier
            self._active.add(src)
        self._deliver_to(tx, duration, on_end)
        return tx

    def admit_remote_transmission(
        self,
        src: int,
        payload: Any,
        nbytes: int,
        duration: float,
        link_dst: Optional[int] = None,
    ) -> Transmission:
        """Admit a fragment whose radio lives on another shard.

        Must be called at the exact simulation time the remote radio
        keyed up (the shard runtime injects it at ``tx.start`` with a
        pre-local priority).  The ghost then participates fully in local
        physics — collisions, capture, carrier sense, per-link loss at
        owned receivers — but is *not* counted as sent here and emits no
        ``channel.tx`` trace: the owning shard already did both, and
        merged totals must not double-count.
        """
        now = self.sim.now
        # Ghost seqnos run negative so they can never collide with the
        # local per-shard seqno space inside the _receiving maps.
        self._ghost_seqno -= 1
        tx = Transmission(
            src, now, now + duration, payload, nbytes, link_dst,
            self._ghost_seqno,
        )
        self._hold_remote_carrier(tx)
        self._deliver_to(tx, duration)
        return tx

    def admit_remote_carrier(self, src: int, end: float) -> None:
        """Admit only the carrier of a remote fragment already on the
        air: no local radio was in its range when it keyed up, so there
        is nothing to receive, but one a move brought into range since
        must sense it until ``end``."""
        self._hold_remote_carrier(
            Transmission(src, self.sim.now, end, None, 0, None, 0)
        )

    def _hold_remote_carrier(self, tx: Transmission) -> None:
        self._remote_active[tx.src] = tx
        self.sim.schedule_at(
            tx.end, self._end_remote, tx.src, tx, name="channel.ghost_end"
        )

    def _end_remote(self, src: int, tx: Transmission) -> None:
        """A ghost's airtime ended; stop asserting carrier for it."""
        if self._remote_active.get(src) is tx:
            del self._remote_active[src]

    def _deliver_to(
        self,
        tx: Transmission,
        duration: float,
        on_end: Optional[Callable[[], None]] = None,
    ) -> None:
        """Admit ``tx`` along the sender's receiver lanes and schedule
        their verdicts, then the sender's ``on_end``, in one event.

        Serves local and ghost transmissions alike: an audibility set
        never lists its own sender, and a ghost's src has no local
        modem to list (nor an ``on_end``).  An idle receiver's admission
        is inlined; anything else goes through _admit_reception, the
        sole owner of the collision/capture verdict logic.
        """
        now = self.sim.now
        src = tx.src
        index = self.index
        audible = index.audible_from(src)  # syncs; foreign srcs cache fine
        cached = self._lanes.get(src)
        if cached is not None and cached[0] is audible and now < cached[1]:
            # Every PRR probe a rebuild would make is a memo hit.
            index.memo_hits += len(audible)
            lanes = cached[2]
        else:
            lanes, expiry = [], math.inf
            for node_id in audible:
                prr = index.link_prr(src, node_id, now)
                expiry = min(expiry, index.prr_memo[src, node_id][1])
                if prr > 0.0:
                    lanes.append(self._lane(src, node_id, prr))
            lanes = tuple(lanes)
            self._lanes[src] = (audible, expiry, lanes)
        if lanes:
            seqno = tx.seqno
            admit = self._admit_reception
            for _, modem, in_progress, prr, _, _ in lanes:
                if in_progress or modem.transmitting or modem.sleeping:
                    admit(tx, modem, in_progress, prr)
                else:
                    in_progress[seqno] = [prr, None, tx]
            # The reference's per-reception events and its sender's end
            # share this instant and take consecutive sequence numbers,
            # so no foreign event can tell them from this one.
            self.sim.schedule(
                duration, self._finish_transmission, lanes, tx, on_end,
                name="channel.rx",
            )
        elif on_end is not None:
            self.sim.schedule(duration, on_end, name="modem.txdone")

    def _lane(self, src: int, node_id: int, prr: float) -> tuple:
        """``node_id``'s receiver lane for ``src``'s fragments.

        Besides the receiver's modem, its in-progress map and the PRR,
        a lane carries the link's loss-draw ``key`` and ``cut``.  A
        fragment gets one ``mix``, the splitmix64 of ``hash((seed, src,
        start))``; its reception on the lane is lost iff ``mix * key
        mod 2**64 >= cut``.  Python hashes ints and floats (unlike str)
        the same in every process, so the verdict is a pure function of
        (seed, src, dst, airtime start), true with probability ``1 -
        prr``.  (src, start) names one transmission — a radio sends one
        fragment at a time — so a retransmission draws afresh.

        The key is odd, so the product is as uniform as ``mix``; two
        receivers' products differ by ``mix`` times the difference of
        their keys, which changes from fragment to fragment.  Each input
        goes through splitmix64 because the tuple hash alone is nearly
        additive: hashing ``(key, start)`` leaves two receivers' draws
        one of four fixed offsets apart.
        """
        return (
            node_id, self._modems[node_id], self._receiving[node_id], prr,
            splitmix64(hash((self._loss_seed, src, node_id))) | 1,
            int(prr * 2**64),
        )

    def _admit_reception(
        self, tx: Transmission, modem: Any, in_progress: dict, prr: float
    ) -> list:
        """Create the reception in ``modem``'s ``in_progress`` map and
        mark collisions with whatever is already in the air there."""
        # Half-duplex, and sleeping radios hear nothing.
        reception = [
            prr,
            "half-duplex" if modem.transmitting or modem.sleeping else None,
            tx,
        ]
        if in_progress:
            # Overlap: the stronger signal may capture the receiver;
            # comparable signals corrupt each other.
            for other in in_progress.values():
                survives = (
                    other[0] >= self.CAPTURE_STRONG
                    and prr <= self.CAPTURE_WEAK
                )
                if not survives and other[1] is None:
                    other[1] = "collision"
                    self.fragments_collided += 1
            captured_over_all = (
                prr >= self.CAPTURE_STRONG
                and all(
                    other[0] <= self.CAPTURE_WEAK
                    for other in in_progress.values()
                )
            )
            if not captured_over_all and reception[1] is None:
                reception[1] = "collision"
                self.fragments_collided += 1
        in_progress[tx.seqno] = reception
        return reception

    def _finish_transmission(
        self, lanes: tuple, tx: Transmission, on_end: Optional[Callable]
    ) -> None:
        """Give every reception of ``tx`` its verdict, lane by lane,
        then run the sender's ``on_end``.  A reception a detach voided
        is skipped before its (pre-detach) modem is consulted."""
        seqno, src, now = tx.seqno, tx.src, self.sim.now
        mix = splitmix64(hash((self._loss_seed, src, tx.start)))
        trace = self.trace
        for node_id, modem, in_progress, _, key, cut in lanes:
            reason = in_progress.pop(seqno)[1]
            if reason is not None:
                if reason == "detached":
                    continue  # the receiver left the medium mid-flight
                if reason == "half-duplex":
                    self.dropped_half_duplex += 1
                else:
                    self.dropped_collision += 1
                if trace.active:
                    trace.emit(now, "channel.collision", node=node_id, src=src)
                    self._note_radio_drop(node_id, tx, reason)
            elif modem.transmitting or modem.sleeping:
                # Started transmitting (or fell asleep) mid-reception.
                self.dropped_half_duplex += 1
                if trace.active:
                    self._note_radio_drop(node_id, tx, "half-duplex")
            elif mix * key & MASK64 >= cut:
                self.fragments_lost += 1
                if trace.active:
                    trace.emit(now, "channel.loss", node=node_id, src=src)
                    self._note_radio_drop(node_id, tx, "channel-loss")
            else:
                self.fragments_delivered += 1
                if trace.active:
                    trace.emit(
                        now, "channel.rx", node=node_id, src=src,
                        nbytes=tx.nbytes,
                    )
                modem.deliver(tx.payload, tx.src, tx.nbytes, tx.link_dst)
        if on_end is not None:
            on_end()

    def _note_radio_drop(self, node_id: int, tx: Transmission, reason: str) -> None:
        """Attribute one failed reception to its cause (callers check
        ``trace.active`` first, keeping an untraced run's loss paths
        free of the call).

        Only the addressed receiver matters for unicast fragments; for
        broadcasts every audible node is a legitimate receiver, so each
        failed copy is recorded (the path tools treat a broadcast hop as
        lost only when *no* copy got through).
        """
        if not self.trace.active:
            return
        if tx.link_dst is not None and tx.link_dst != node_id:
            return
        trace_id = trace_id_of(tx.payload)
        if trace_id is None:
            return
        self.trace.emit(
            self.sim.now,
            "path.drop",
            node=node_id,
            trace=trace_id,
            reason=reason,
            layer="radio",
            src=tx.src,
        )
