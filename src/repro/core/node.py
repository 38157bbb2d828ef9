"""DiffusionNode: the per-node diffusion core.

One instance runs on every sensor node.  It owns the gradient table,
the duplicate cache, the filter pipeline, and the protocol logic of
two-phase-pull directed diffusion:

* interests flood (with per-message dedup) and set up gradients;
* exploratory data floods along gradients and records upstream pointers;
* sinks reinforce the neighbor that delivered the first copy of each new
  exploratory generation; reinforcements propagate hop-by-hop along the
  upstream pointers toward each source;
* non-exploratory data travels only on reinforced gradients;
* negative reinforcements tear down abandoned paths when a sink switches
  preferred neighbors.

The core's routing runs as a built-in filter at
:data:`~repro.core.filter_api.GRADIENT_FILTER_PRIORITY`, so application
filters can interpose above it (see the aggregation and nested-query
filters in :mod:`repro.filters`).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cache import DataCache
from repro.core.config import DiffusionConfig
from repro.core.filter_api import Filter, FilterHandle, GRADIENT_FILTER_PRIORITY
from repro.core.gradient import GradientTable, InterestEntry
from repro.core.messages import (
    BROADCAST,
    Message,
    MessageType,
    make_data,
    make_interest,
    make_reinforcement,
)
from repro.naming import AttributeVector, fast_two_way_match
from repro.sim import Simulator, TraceBus
from repro.sim.metrics import CLASS_LABEL, current_registry

_subscription_ids = itertools.count(1)
_publication_ids = itertools.count(1)

#: metric/report label per message class.  Both reinforcement
#: polarities share one label (they are the same control function).
MESSAGE_CLASS_LABELS: Dict[MessageType, str] = {
    MessageType.INTEREST: "interest",
    MessageType.DATA: "data",
    MessageType.EXPLORATORY_DATA: "exploratory",
    MessageType.POSITIVE_REINFORCEMENT: "reinforcement",
    MessageType.NEGATIVE_REINFORCEMENT: "reinforcement",
    MessageType.CONTROL: "control",
}

#: the message types behind each class label.
_CLASS_TYPES: Dict[str, Tuple[MessageType, ...]] = {
    label: tuple(t for t, of in MESSAGE_CLASS_LABELS.items() if of == label)
    for label in dict.fromkeys(MESSAGE_CLASS_LABELS.values())
}


@dataclass
class Subscription:
    """A local data sink (or interest watcher)."""

    handle_id: int
    attrs: AttributeVector
    callback: Callable[[AttributeVector, Message], None]
    periodic_event: Optional[object] = None
    entry: Optional[InterestEntry] = None


@dataclass
class Publication:
    """A local data source."""

    handle_id: int
    attrs: AttributeVector
    last_exploratory: Optional[float] = None


class NodeStats:
    """Traffic counters for experiments (bytes/messages by type)."""

    def __init__(self) -> None:
        self.bytes_sent: int = 0
        self.messages_sent: int = 0
        self.bytes_by_type: Dict[MessageType, int] = {t: 0 for t in MessageType}
        self.messages_by_type: Dict[MessageType, int] = {t: 0 for t in MessageType}
        self.messages_received: int = 0
        self.events_delivered: int = 0
        #: data with no gradient to follow, ``messages_dropped_negative``
        #: (the path was torn down by a negative reinforcement) included.
        self.messages_dropped_no_route: int = 0
        self.messages_dropped_negative: int = 0
        self.duplicates_suppressed: int = 0

    def count_tx(self, msg_type: MessageType, nbytes: int) -> None:
        self.bytes_sent += nbytes
        self.messages_sent += 1
        self.bytes_by_type[msg_type] += nbytes
        self.messages_by_type[msg_type] += 1


class DiffusionNode:
    """Diffusion core bound to one node's link stack."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        transport,
        config: Optional[DiffusionConfig] = None,
        trace: Optional[TraceBus] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.transport = transport  # FragmentationLayer-compatible
        self.config = config or DiffusionConfig()
        self.config.validate()
        self.trace = trace or TraceBus()
        self.rng = rng or random.Random(node_id)
        self.stats = stats = NodeStats()
        registry = current_registry()
        registry.counter("diffusion.tx.messages", lambda: stats.messages_sent)
        registry.counter("diffusion.tx.bytes", lambda: stats.bytes_sent)
        # Per-message-class accounting (interest / data / exploratory /
        # reinforcement / control): each class sums its message types.
        for label, types in _CLASS_TYPES.items():
            registry.counter(
                "diffusion.tx.messages",
                lambda types=types: sum(
                    stats.messages_by_type[t] for t in types
                ),
                **{CLASS_LABEL: label},
            )
            registry.counter(
                "diffusion.tx.bytes",
                lambda types=types: sum(stats.bytes_by_type[t] for t in types),
                **{CLASS_LABEL: label},
            )
        registry.counter(
            "diffusion.rx.messages", lambda: stats.messages_received
        )
        registry.counter("diffusion.delivered", lambda: stats.events_delivered)
        registry.counter(
            "diffusion.drops", lambda: stats.duplicates_suppressed,
            reason="cache-suppression",
        )
        registry.counter(
            "diffusion.drops",
            lambda: stats.messages_dropped_no_route
            - stats.messages_dropped_negative,
            reason="no-route",
        )
        registry.counter(
            "diffusion.drops", lambda: stats.messages_dropped_negative,
            reason="negative-reinforcement",
        )

        self.gradients = GradientTable()
        # Entries are forgotten after DataCache's default 60 s.
        self.cache = DataCache(capacity=self.config.cache_capacity)
        self.subscriptions: Dict[int, Subscription] = {}
        self.publications: Dict[int, Publication] = {}
        self._filters: List[Filter] = []
        self._sweep_event = None
        # Optional hierarchy hook (repro.hierarchy): a ForwardPolicy
        # duck-typed object consulted at each rebroadcast decision.
        # None — the default — takes exactly the legacy code paths, so
        # flat mode stays bit-identical to the classic stack.
        self.forward_policy = None

        if transport is not None:
            transport.deliver_callback = self._on_network_message

        # The routing core is itself a filter: an empty attribute vector
        # has no formals, so it matches every message.
        self._gradient_filter = Filter(
            attrs=AttributeVector(),
            priority=GRADIENT_FILTER_PRIORITY,
            callback=self._gradient_filter_callback,
            name="gradient-core",
        )
        self._filters.append(self._gradient_filter)
        self._schedule_sweep()

    # ------------------------------------------------------------------
    # Filter pipeline
    # ------------------------------------------------------------------

    def add_filter(
        self,
        attrs: AttributeVector,
        priority: int,
        callback: Callable[[Message, FilterHandle], None],
        name: str = "",
    ) -> FilterHandle:
        """Register an application filter (paper Figure 5, ``addFilter``)."""
        if priority == GRADIENT_FILTER_PRIORITY:
            raise ValueError(
                f"priority {GRADIENT_FILTER_PRIORITY} is reserved for the core"
            )
        if priority < GRADIENT_FILTER_PRIORITY:
            # The gradient filter matches every message and transmits
            # it itself, so nothing would ever reach this filter.
            raise ValueError(
                f"priority {priority} is below the core's "
                f"{GRADIENT_FILTER_PRIORITY}: such a filter never runs"
            )
        filt = Filter(attrs=attrs, priority=priority, callback=callback, name=name)
        # The list is kept sorted by descending priority; insort keeps
        # registration order among equal priorities (same as the old
        # stable re-sort) at O(n) per insert instead of O(n log n).
        bisect.insort(self._filters, filt, key=lambda f: -f.priority)
        return filt.handle

    def remove_filter(self, handle: FilterHandle) -> bool:
        """``removeFilter``: deregister; returns False when unknown."""
        for filt in self._filters:
            if filt.handle == handle and filt is not self._gradient_filter:
                self._filters.remove(filt)
                return True
        return False

    def send_message(self, message: Message, handle: FilterHandle) -> None:
        """Filter API: continue pipeline below the caller's priority."""
        self._run_pipeline(message, below_priority=handle.priority)

    def send_message_to_next(self, message: Message, handle: FilterHandle) -> None:
        """Filter API: bypass remaining filters, hand to the radio."""
        self._transmit(message)

    def _run_pipeline(self, message: Message, below_priority: int = 255) -> None:
        for filt in self._filters:  # sorted by descending priority
            if filt.priority >= below_priority:
                continue
            if filt.matches(message):
                filt.callback(message, filt.handle)
                return
        # No filter claimed the message; it dies silently (same as the
        # reference implementation when no filter matches).

    # ------------------------------------------------------------------
    # Publish/subscribe API (used via repro.core.api.DiffusionRouting)
    # ------------------------------------------------------------------

    def subscribe(
        self,
        attrs: AttributeVector,
        callback: Callable[[AttributeVector, Message], None],
    ) -> int:
        """Create a subscription; floods interests periodically."""
        handle_id = next(_subscription_ids)
        entry = self.gradients.entry_for(attrs)
        entry.local_sink = True
        sub = Subscription(
            handle_id=handle_id, attrs=attrs, callback=callback, entry=entry
        )
        self.subscriptions[handle_id] = sub
        if not self.config.push_mode:
            self._originate_interest(sub)
        return handle_id

    def unsubscribe(self, handle_id: int) -> bool:
        sub = self.subscriptions.pop(handle_id, None)
        if sub is None:
            return False
        if sub.periodic_event is not None:
            sub.periodic_event.cancel()
        still_local = any(
            other.entry is sub.entry for other in self.subscriptions.values()
        )
        if not still_local:
            sub.entry.local_sink = False
        return True

    def publish(self, attrs: AttributeVector) -> int:
        handle_id = next(_publication_ids)
        self.publications[handle_id] = Publication(handle_id=handle_id, attrs=attrs)
        return handle_id

    def unpublish(self, handle_id: int) -> bool:
        return self.publications.pop(handle_id, None) is not None

    def send(
        self,
        publication_handle: int,
        attrs: AttributeVector,
        padding_bytes: int = 0,
        force_exploratory: bool = False,
    ) -> Optional[Message]:
        """Send data: publication attrs merged with per-message attrs.

        A message is marked exploratory when ``exploratory_interval``
        seconds have passed since the last exploratory one (the very
        first message always is).  Returns the message, or None when
        the publication handle is unknown.
        """
        pub = self.publications.get(publication_handle)
        if pub is None:
            return None
        merged = AttributeVector(list(pub.attrs) + list(attrs))
        exploratory = (
            force_exploratory
            or pub.last_exploratory is None
            or self.sim.now - pub.last_exploratory
            >= self.config.exploratory_interval
        )
        # Only consume the exploratory slot when the message can leave
        # the node: a send with no matching demand is dropped, and
        # burning the slot on it would leave the source without a path
        # until the next interval.  Push-mode advertisements always
        # leave — there is no interest state to consult.
        if self.config.push_mode:
            has_demand = True
        else:
            has_demand = bool(self.gradients.matching_data(merged, self.sim.now))
        if exploratory and has_demand:
            pub.last_exploratory = self.sim.now
        message = make_data(
            attrs=merged,
            origin=self.node_id,
            exploratory=exploratory,
            header_bytes=self.config.header_bytes,
            padding_bytes=padding_bytes,
            push_attrs=pub.attrs if self.config.push_mode else None,
        )
        self._note_origin(message)
        self._run_pipeline(message)
        return message

    # ------------------------------------------------------------------
    # Interest origination and refresh
    # ------------------------------------------------------------------

    def _originate_interest(self, sub: Subscription) -> None:
        if sub.handle_id not in self.subscriptions:
            return
        message = make_interest(
            attrs=sub.attrs,
            origin=self.node_id,
            header_bytes=self.config.header_bytes,
        )
        self._note_origin(message)
        self._run_pipeline(message)
        jitter = self.rng.uniform(0, self.config.interest_jitter)
        sub.periodic_event = self.sim.schedule(
            self.config.interest_interval + jitter,
            self._originate_interest,
            sub,
            name="diffusion.interest-refresh",
        )

    # ------------------------------------------------------------------
    # Core (gradient filter) processing
    # ------------------------------------------------------------------

    def _gradient_filter_callback(self, message: Message, handle: FilterHandle) -> None:
        if message.msg_type is MessageType.INTEREST:
            self._process_interest(message)
        elif message.msg_type.is_data:
            self._process_data(message)
        elif message.msg_type is MessageType.CONTROL:
            # Control-plane traffic (hierarchy announcements) is consumed
            # by the filters that speak it; the gradient core never
            # routes or re-floods it.
            return
        else:
            self._process_reinforcement(message)

    # -- interests -------------------------------------------------------

    def _note_origin(self, message: Message) -> None:
        """Trace the creation of a message at this node (rare path)."""
        if self.trace.active:
            self.trace.emit(
                self.sim.now,
                "path.origin",
                node=self.node_id,
                trace=message.trace_id,
                msg_type=message.msg_type.name,
                parent=message.parent_trace,
            )

    def _note_drop(self, message: Message, reason: str) -> None:
        """Trace a message this node declined to carry further."""
        if self.trace.active:
            self.trace.emit(
                self.sim.now,
                "path.drop",
                node=self.node_id,
                trace=message.trace_id,
                msg_type=message.msg_type.name,
                reason=reason,
                layer="core",
            )

    def _process_interest(self, message: Message) -> None:
        now = self.sim.now
        if self.cache.seen_before(("interest", message.unique_id), now):
            self.stats.duplicates_suppressed += 1
            self._note_drop(message, "cache-suppression")
            if self.forward_policy is not None:
                # Hierarchy modes count duplicate copies as evidence of
                # neighborhood coverage (counter-based suppression).
                self.forward_policy.note_interest_duplicate(self, message)
            return
        entry = self.gradients.entry_for(message.attrs)
        if message.last_hop is not None:
            entry.update_gradient(
                message.last_hop, now, self.config.gradient_timeout
            )
        else:
            entry.last_refresh = now
        self._deliver_to_subscriptions(message)
        # Flood: every node redistributes the interest to its neighbors
        # — unless an installed hierarchy policy elects to suppress or
        # defer this copy (flat mode has no policy and always floods).
        if self.forward_policy is None or self.forward_policy.forward_interest(
            self, message
        ):
            self._transmit(message.forwarded_copy(BROADCAST))

    # -- data ----------------------------------------------------------------

    def _process_data(self, message: Message) -> None:
        now = self.sim.now
        if self.cache.seen_before(("data", message.unique_id), now):
            self.stats.duplicates_suppressed += 1
            self._note_drop(message, "cache-suppression")
            if message.msg_type is MessageType.EXPLORATORY_DATA:
                # Duplicate exploratory copies are not re-forwarded or
                # re-delivered, but they still carry path information:
                # each copy's arrival direction extends the upstream
                # candidate list (what multipath reinforcement selects
                # from) and refreshes sink-side reinforcement.
                self._note_duplicate_exploratory(message, now)
            return
        if message.push_attrs is not None:
            self._process_push_data(message, now)
            return
        matches = self.gradients.matching_data(message.attrs, now)
        if not matches:
            if (
                self.forward_policy is not None
                and message.msg_type is MessageType.EXPLORATORY_DATA
                and self.forward_policy.forward_exploratory(
                    self, message, False
                )
            ):
                # Hierarchy modes can route exploratory data toward
                # demand this node never heard an interest for (the
                # rendezvous region); flat mode drops it here.
                self._transmit(message.forwarded_copy(BROADCAST))
                return
            self.stats.messages_dropped_no_route += 1
            self._note_drop(message, "no-route")
            return
        delivered = self._deliver_to_subscriptions(message)
        if message.msg_type is MessageType.EXPLORATORY_DATA:
            self._process_exploratory(message, matches, delivered, now)
        else:
            self._forward_plain_data(message, matches, now)

    def _process_push_data(self, message: Message, now: float) -> None:
        """One-phase push: no interest state exists; data routes on the
        publication entry carried in ``push_attrs``."""
        delivered = self._deliver_to_subscriptions(message)
        entry = self.gradients.entry_for(message.push_attrs)
        data_origin = (
            message.data_origin if message.data_origin is not None else message.origin
        )
        if message.msg_type is MessageType.EXPLORATORY_DATA:
            entry.note_exploratory(
                data_origin, message.unique_id, message.last_hop, now
            )
            if (
                delivered
                and message.last_hop is not None
                and self.config.enable_reinforcement
            ):
                # A matching local subscription makes this node a sink
                # for the advertised publication: reinforce toward it.
                self._sink_reinforce(entry, data_origin, now, cause=message.trace_id)
            # Advertisements flood the whole network (the cost of push).
            self._transmit(message.forwarded_copy(BROADCAST))
            return
        next_hops = [
            n
            for n in entry.reinforced_neighbors(data_origin, now)
            if n != message.last_hop
        ]
        if not next_hops:
            if not delivered:
                self.stats.messages_dropped_no_route += 1
                if entry.was_torn_down(data_origin):
                    self.stats.messages_dropped_negative += 1
                    self._note_drop(message, "negative-reinforcement")
                else:
                    self._note_drop(message, "no-route")
            return
        for neighbor in next_hops:
            self._transmit(message.forwarded_copy(neighbor))

    def _note_duplicate_exploratory(self, message: Message, now: float) -> None:
        data_origin = (
            message.data_origin if message.data_origin is not None else message.origin
        )
        if message.push_attrs is not None:
            entries = [self.gradients.entry_for(message.push_attrs)]
        else:
            entries = self.gradients.matching_data(message.attrs, now)
        for entry in entries:
            first_copy = entry.note_exploratory(
                data_origin, message.unique_id, message.last_hop, now
            )
            if (
                entry.local_sink
                and not first_copy
                and message.last_hop is not None
                and self.config.enable_reinforcement
                and self.config.multipath_degree > 1
            ):
                self._sink_reinforce(entry, data_origin, now, cause=message.trace_id)

    def _process_exploratory(
        self,
        message: Message,
        matches: List[InterestEntry],
        delivered_locally: bool,
        now: float,
    ) -> None:
        data_origin = message.data_origin if message.data_origin is not None else message.origin
        for entry in matches:
            entry.note_exploratory(
                data_origin, message.unique_id, message.last_hop, now
            )
            if (
                entry.local_sink
                and message.last_hop is not None
                and self.config.enable_reinforcement
            ):
                # Reinforce on *every* copy heard, not just the first:
                # individual reinforcement messages are best-effort and
                # compete with the exploratory flood, so repetition is
                # what makes path setup reliable.  note_exploratory has
                # already pointed "preferred" at the first-copy neighbor.
                self._sink_reinforce(entry, data_origin, now, cause=message.trace_id)
        # Exploratory data floods onward to find/repair paths.
        remote_demand = any(
            entry.active_gradient_neighbors(now) for entry in matches
        )
        policy = self.forward_policy
        if policy is None:
            if remote_demand:
                self._transmit(message.forwarded_copy(BROADCAST))
        elif policy.forward_exploratory(self, message, remote_demand):
            self._transmit(message.forwarded_copy(BROADCAST))

    def _sink_reinforce(
        self,
        entry: InterestEntry,
        data_origin: int,
        now: float,
        cause: Optional[str] = None,
    ) -> None:
        """Sink-side path selection for one (interest, source) pair.

        The preferred neighbors are the first ``multipath_degree``
        distinct deliverers of the newest exploratory generation; with
        degree 1 this is classic single-path diffusion.
        """
        candidates = [
            n for n in entry.upstream_neighbors(data_origin) if n is not None
        ]
        preferred = candidates[: self.config.multipath_degree]
        if not preferred:
            return
        for dropped in entry.sink_preferred.get(data_origin, []):
            if dropped not in preferred:
                self._send_reinforcement(
                    positive=False,
                    entry=entry,
                    data_origin=data_origin,
                    next_hop=dropped,
                    cause=cause,
                )
        entry.sink_preferred[data_origin] = list(preferred)
        for next_hop in preferred:
            self._send_reinforcement(
                positive=True,
                entry=entry,
                data_origin=data_origin,
                next_hop=next_hop,
                cause=cause,
            )

    def _send_reinforcement(
        self,
        positive: bool,
        entry: InterestEntry,
        data_origin: int,
        next_hop: int,
        cause: Optional[str] = None,
    ) -> None:
        message = make_reinforcement(
            positive=positive,
            interest_attrs=entry.attrs,
            interest_digest=entry.digest,
            data_origin=data_origin,
            origin=self.node_id,
            next_hop=next_hop,
            header_bytes=self.config.header_bytes,
            parent_trace=cause,
        )
        self._note_origin(message)
        # Jittered: reinforcements fire while an exploratory flood is in
        # the air; delaying past the flood keeps them out of collisions.
        delay = self.rng.uniform(0.05, max(0.05, self.config.reinforcement_jitter))
        self.sim.schedule(delay, self._transmit, message, name="diffusion.reinforce")

    def _forward_plain_data(
        self, message: Message, matches: List[InterestEntry], now: float
    ) -> None:
        data_origin = message.data_origin if message.data_origin is not None else message.origin
        if not self.config.enable_reinforcement:
            # Flooding ablation: data behaves like exploratory data.
            if any(entry.active_gradient_neighbors(now) for entry in matches):
                self._transmit(message.forwarded_copy(BROADCAST))
            return
        next_hops: List[int] = []
        for entry in matches:
            for neighbor in entry.reinforced_neighbors(data_origin, now):
                if neighbor != message.last_hop and neighbor not in next_hops:
                    next_hops.append(neighbor)
        if not next_hops:
            local = any(entry.local_sink for entry in matches)
            if not local:
                self.stats.messages_dropped_no_route += 1
                if any(entry.was_torn_down(data_origin) for entry in matches):
                    self.stats.messages_dropped_negative += 1
                    self._note_drop(message, "negative-reinforcement")
                else:
                    self._note_drop(message, "no-route")
            return
        for neighbor in next_hops:
            self._transmit(message.forwarded_copy(neighbor))

    # -- reinforcement --------------------------------------------------------

    def _process_reinforcement(self, message: Message) -> None:
        now = self.sim.now
        if message.interest_digest is None or message.data_origin is None:
            return
        entry = self.gradients.get(message.interest_digest)
        if entry is None:
            entry = self.gradients.entry_for(message.attrs)
        positive = message.msg_type is MessageType.POSITIVE_REINFORCEMENT
        downstream = message.last_hop
        if downstream is None:
            return
        if positive:
            entry.reinforce(
                message.data_origin, downstream, now, self.config.reinforced_timeout
            )
            if (
                self.forward_policy is not None
                and self.forward_policy.reinforcement_implies_demand
            ):
                # Rendezvous sources never hear interests, so the
                # arriving reinforcement is itself the demand signal: it
                # refreshes a plain gradient toward the reinforcing
                # neighbor, letting send() route plain data normally.
                entry.update_gradient(
                    downstream, now, self.config.gradient_timeout
                )
            upstream = entry.upstream_neighbor(message.data_origin)
            if upstream is not None:
                self._send_reinforcement(
                    positive=True,
                    entry=entry,
                    data_origin=message.data_origin,
                    next_hop=upstream,
                    cause=message.trace_id,
                )
        else:
            entry.unreinforce(message.data_origin, downstream)
            if not entry.reinforced_neighbors(message.data_origin, now):
                upstream = entry.upstream_neighbor(message.data_origin)
                if upstream is not None:
                    self._send_reinforcement(
                        positive=False,
                        entry=entry,
                        data_origin=message.data_origin,
                        next_hop=upstream,
                        cause=message.trace_id,
                    )

    # ------------------------------------------------------------------
    # Local delivery
    # ------------------------------------------------------------------

    def _deliver_to_subscriptions(self, message: Message) -> bool:
        delivered = False
        effective = message.matching_attrs()
        for sub in list(self.subscriptions.values()):
            if fast_two_way_match(sub.attrs, effective):
                delivered = True
                self.stats.events_delivered += 1
                if self.trace.active:
                    self.trace.emit(
                        self.sim.now,
                        "app.deliver",
                        node=self.node_id,
                        msg_type=message.msg_type.name,
                        origin=message.origin,
                        trace=message.trace_id,
                        hops=message.hop_count,
                    )
                sub.callback(message.attrs, message)
        return delivered

    # ------------------------------------------------------------------
    # Network I/O
    # ------------------------------------------------------------------

    def _transmit(self, message: Message) -> None:
        nbytes = message.nbytes
        msg_type = message.msg_type
        self.stats.count_tx(msg_type, nbytes)
        if self.trace.active:
            self.trace.emit(
                self.sim.now,
                "diffusion.tx",
                node=self.node_id,
                nbytes=nbytes,
                msg_type=msg_type.name,
                next_hop=message.next_hop,
                trace=message.trace_id,
                hops=message.hop_count,
            )
        if self.transport is not None:
            self.transport.send_message(message, nbytes, message.next_hop)

    def _on_network_message(self, message: Message, src: int, nbytes: int) -> None:
        if not isinstance(message, Message):
            return
        self.stats.messages_received += 1
        if self.trace.active:
            self.trace.emit(
                self.sim.now,
                "diffusion.rx",
                node=self.node_id,
                nbytes=nbytes,
                msg_type=message.msg_type.name,
                src=src,
                trace=message.trace_id,
                hops=message.hop_count,
            )
        incoming = message.hop_copy()
        incoming.last_hop = src
        self._run_pipeline(incoming)

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def _schedule_sweep(self) -> None:
        self._sweep_event = self.sim.schedule(
            30.0, self._sweep, name="diffusion.sweep"
        )

    def _sweep(self) -> None:
        self.gradients.sweep(self.sim.now)
        self._schedule_sweep()

    def shutdown(self) -> None:
        """Cancel timers (node failure injection / end of experiment)."""
        if self._sweep_event is not None:
            self._sweep_event.cancel()
        for sub in self.subscriptions.values():
            if sub.periodic_event is not None:
                sub.periodic_event.cancel()
        if self.forward_policy is not None:
            self.forward_policy.shutdown()

    def reboot(self) -> None:
        """Come back from a power cycle with soft state lost.

        Gradients and the duplicate cache live in RAM on a real mote, so
        a reboot wipes them; subscriptions and publications are the
        *application's* configuration and survive (the app restarts with
        the same tasks).  Repair must come from protocol traffic:
        restarted interest flooding rebuilds this node's entries, and
        upstream exploratory data re-discovers it.
        """
        self.shutdown()
        self.gradients = GradientTable()
        self.cache = DataCache(capacity=self.config.cache_capacity)
        # Coherence checkpoint: monitors verify the wipe at this instant,
        # before re-subscription repopulates the table.
        self.trace.emit(self.sim.now, "node.reboot", node=self.node_id)
        for sub in self.subscriptions.values():
            sub.entry = self.gradients.entry_for(sub.attrs)
            sub.entry.local_sink = True
        for pub in self.publications.values():
            pub.last_exploratory = None
        self._schedule_sweep()
        if not self.config.push_mode:
            for sub in self.subscriptions.values():
                self._originate_interest(sub)
        if self.forward_policy is not None:
            # Cluster/rendezvous state is soft too: the policy restarts
            # with empty neighbor tables and re-arms its timers.
            self.forward_policy.restart()
