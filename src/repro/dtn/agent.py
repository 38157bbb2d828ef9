"""The custody agent: a filter between the transfer layer and the core.

:class:`CustodyAgent` installs one match-all filter just below the
block cache (and above the gradient core), where it can see every
transfer block *before* the core decides its fate.  Three behaviors:

* **accept on dark gradient** — a block the core would drop (no live
  demand, no reinforced next hop, no local sink) is absorbed into the
  :class:`~repro.dtn.custody.CustodyStore` instead of dying, and the
  drop attribution becomes a ``custody.*`` event rather than a silent
  radio loss;
* **carry and hand off** — custodied blocks are re-injected with
  seed-deterministic exponential backoff: through the routing core when
  demand has returned (repair), or as a one-hop carrier beacon when the
  node is still dark — which is how a data mule walking between
  partitions picks blocks up (the beacon carries ``Key.CUSTODIAN``, and
  any neighbor that accepts the handoff or can deliver answers with a
  one-hop CONTROL custody ack, following the hierarchy control-plane
  pattern);
* **release on evidence** — one-hop custody acks, network-flooded
  ``bulk-ack`` receiver acknowledgements, and local sink delivery all
  release custody (``custody.transfer``); everything else ends in an
  explicit ``custody.expire``.

Custody is off by not attaching an agent: nothing else in the stack
knows this layer exists.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.filter_api import FilterHandle, GRADIENT_FILTER_PRIORITY
from repro.core.messages import Message, MessageType, make_control, make_data
from repro.naming import Attribute, AttributeVector, Operator
from repro.naming.keys import Key
from repro.sim.metrics import current_registry
from repro.transfer.sender import ACK_TYPE, TRANSFER_TYPE, decode_block_list

from repro.dtn.config import DtnConfig
from repro.dtn.custody import BlockKey, CustodyStore

#: below the block cache (+30), above the gradient core — custody sees
#: blocks the instant before the core would route or drop them.
CUSTODY_FILTER_PRIORITY = GRADIENT_FILTER_PRIORITY + 20

#: CONTROL_KIND value tagging one-hop custody acks.
CUSTODY_CONTROL_KIND = "custody"

#: bound on re-injection transmissions per custodied block.
MAX_ATTEMPTS = 16
#: The retry schedule is exponential with seed-deterministic jitter:
#: attempt ``n`` waits ``min(RETRY_MAX, RETRY_BASE * RETRY_FACTOR**n)``
#: seconds plus a uniform draw in ``[0, RETRY_JITTER * delay)`` from
#: the node's own ``make_rng`` stream, so replays are bit-identical and
#: co-located custodians do not retry in lockstep.  It starts patient —
#: a contact-triggered retry (a matching interest arriving) is what
#: provides promptness, so the periodic retries can stay off the
#: channel.
RETRY_BASE = 4.0
RETRY_FACTOR = 1.7
RETRY_MAX = 20.0
RETRY_JITTER = 0.5
#: contact-triggered retries spread over this many seconds after a
#: matching interest arrives (jittered, seed-deterministic).  The window
#: must be wide enough that a full store re-injecting does not collide
#: with itself — one block every ~250 ms, not all at once.
CONTACT_DELAY = 6.0
#: a matching interest only counts as a *contact* when interests had
#: stopped arriving for this long (or it is the first one ever seen for
#: the object).  Sinks refresh interests continuously, so on a connected
#: path the stream never gaps and custody stays silent; a gap means the
#: sink side was unreachable and this refresh is the heal.  Must exceed
#: the sink's refresh interval with margin.
CONTACT_GAP = 25.0
#: a node that goes dark only beacons after demand has been absent this
#: long.  Losing a couple of interest refreshes to collisions
#: momentarily darkens a *connected* node, and beaconing into that
#: congestion (every neighbor accepting a handoff copy, each copy later
#: beaconing in turn) amplifies exactly the traffic that caused it.  A
#: node that was never routable — a disconnected source, a mule in
#: transit — has no recent-demand timestamp and beacons immediately.
BEACON_GRACE = 25.0
#: routed re-injection transmissions granted per contact (or per carrier
#: handoff / dark-to-routable transition).  When the budget is spent the
#: entry holds passively — the live transfer layer owns recovery on a
#: connected path, and custody blind-firing routed floods was measured
#: to congest the channel enough to delay the very transfer it was
#: insuring.
ROUTED_BURST = 3


class CustodyAgent:
    """Store-carry-forward custody for one node's transfer traffic."""

    def __init__(
        self,
        node,
        rng,
        config: Optional[DtnConfig] = None,
        energy_spent=None,
    ) -> None:
        self.node = node
        self.rng = rng
        self.config = config or DtnConfig()
        self.store = CustodyStore(
            node.node_id, node.trace, self.config, energy_spent=energy_spent
        )
        self.reinjections = 0
        self.beacons = 0
        self.contacts = 0
        self.acks_sent = 0
        registry = current_registry()
        if registry:
            registry.counter("dtn.reinjections", lambda: self.reinjections)
            registry.counter("dtn.acks_sent", lambda: self.acks_sent)
        self._retry: Dict[BlockKey, object] = {}
        #: key -> time custody last left this node via handoff; a
        #: hold-down against two dark neighbors ping-ponging a block
        #: (each handoff would otherwise reset the age watermark).
        self._released_at: Dict[BlockKey, float] = {}
        #: key -> the neighbor custody was handed to; never re-accept a
        #: handoff of that key from that neighbor — custody must not
        #: migrate backward (source-side nodes reclaiming blocks from a
        #: departing mule would strand them when the partition shifts).
        self._handed_to: Dict[BlockKey, int] = {}
        #: key -> remaining *routed* re-injection credit.  Custody on a
        #: node with live demand and a live path is passive insurance —
        #: the transfer layer's own retransmission and repair machinery
        #: owns recovery there, and blind-firing routed floods on a
        #: backoff loop congests the channel enough to kill the very
        #: acks that would release custody (measured: 2.5x
        #: completion-time regression on a healthy grid).  Credit is
        #: granted only by events that mean the route is *news*: a
        #: contact (a matching interest after a gap — partition heal,
        #: mule reaching the sink), a carrier handoff just accepted, or
        #: a dark (beaconing) spell ending.
        self._credit: Dict[BlockKey, int] = {}
        #: object id -> when a matching interest last passed this node;
        #: the contact detector (see ``CONTACT_GAP``).
        self._last_interest: Dict[str, float] = {}
        #: object id -> when this node last had a live gradient for it;
        #: the beacon-grace reference (see ``BEACON_GRACE``).
        self._routable_at: Dict[str, float] = {}
        self.handle: Optional[FilterHandle] = node.add_filter(
            AttributeVector(),
            CUSTODY_FILTER_PRIORITY,
            self._callback,
            name="dtn-custody",
        )

    # -- pipeline --------------------------------------------------------

    def _callback(self, message: Message, handle: FilterHandle) -> None:
        if message.msg_type is MessageType.CONTROL:
            if (
                message.attrs.value_of(Key.CONTROL_KIND)
                == CUSTODY_CONTROL_KIND
            ):
                self._on_custody_ack(message)
                return  # one-hop: acks terminate here
            self.node.send_message(message, handle)
            return
        if message.msg_type is MessageType.INTEREST:
            self._on_interest(message)
            self.node.send_message(message, handle)
            return
        if message.msg_type.is_data:
            data_type = message.attrs.value_of(Key.TYPE)
            if data_type == TRANSFER_TYPE:
                self._on_block(message, handle)
                return
            if data_type == ACK_TYPE:
                self._on_transfer_ack(message)
                # The ack still has to reach the sender.
        self.node.send_message(message, handle)

    # -- block handling --------------------------------------------------

    def _on_block(self, message: Message, handle: FilterHandle) -> None:
        attrs = message.attrs
        object_id = attrs.value_of(Key.INSTANCE)
        index = attrs.value_of(Key.SEQUENCE)
        total = attrs.value_of(Key.DURATION)
        payload = attrs.value_of(Key.PAYLOAD)
        if (
            object_id is None
            or index is None
            or total is None
            or not isinstance(payload, bytes)
        ):
            self.node.send_message(message, handle)
            return
        key: BlockKey = (object_id, int(index))
        carrier = attrs.value_of(Key.CUSTODIAN)
        if carrier is not None:
            carrier = int(carrier)
            if carrier == self.node.node_id:
                carrier = None  # a forwarded copy of our own re-injection
        handoff = carrier is not None and message.last_hop == carrier
        now = self.node.sim.now
        matches = self.node.gradients.matching_data(attrs, now)
        local = any(entry.local_sink for entry in matches)
        routable = local or self._has_forward_path(message, matches, now)

        if local and carrier is not None:
            # The block made it: tell the carrier in earshot.
            self.node.trace.emit(
                now, "custody.deliver", node=self.node.node_id,
                object=object_id, index=int(index), trace=message.trace_id,
                carrier=carrier,
            )
            self._send_ack(key, delivered=True)
        elif handoff:
            # A carrier in earshot is offering this block.  Take custody
            # (routable or not — a handoff beacon means the carrier is
            # dark, and we are its best chance) and confirm one-hop.
            if self.store.holds(key) or self._accept(
                message, key, carrier, now
            ) is not None:
                self._send_ack(key, delivered=False)
        elif not routable:
            # Dark gradient: the core is about to drop this block.
            # Insure it before that happens.
            if not self.store.holds(key):
                self._accept(message, key, carrier, now)
        # Custody is insurance, not a detour: the original copy always
        # continues to the core, which remains the single authority on
        # forwarding and drop attribution.  A dark block dies there
        # exactly as it would without custody (no extra transmissions),
        # while the store's copy waits for repair or a new carrier.
        self.node.send_message(message, handle)

    def _has_forward_path(self, message: Message, matches, now: float) -> bool:
        """Mirror of the core's forwarding decision for this message."""
        node = self.node
        if not matches:
            # A hierarchy policy may still route unmatched exploratory
            # data (rendezvous corridors); don't custody what it can carry.
            return (
                node.forward_policy is not None
                and message.msg_type is MessageType.EXPLORATORY_DATA
            )
        if message.msg_type is MessageType.EXPLORATORY_DATA:
            return any(e.active_gradient_neighbors(now) for e in matches)
        if not node.config.enable_reinforcement:
            return any(e.active_gradient_neighbors(now) for e in matches)
        data_origin = (
            message.data_origin
            if message.data_origin is not None
            else message.origin
        )
        for entry in matches:
            for neighbor in entry.reinforced_neighbors(data_origin, now):
                if neighbor != message.last_hop:
                    return True
        return False

    def _accept(
        self,
        message: Message,
        key: BlockKey,
        carrier: Optional[int],
        now: float,
    ):
        if carrier is not None:
            if self._handed_to.get(key) == carrier:
                return None  # never take back what we handed forward
            released = self._released_at.get(key)
            if released is not None and now - released < RETRY_MAX:
                return None  # hold-down: we just handed this block off
        attrs = message.attrs
        entry = self.store.accept(
            key[0], key[1],
            int(attrs.value_of(Key.DURATION)),
            attrs.value_of(Key.PAYLOAD),
            now,
            trace=message.trace_id,
            carrier=carrier,
        )
        if entry is None:
            return None
        # Custody age travels with the block: a handoff must not reset
        # the age watermark, or two dark nodes could carry a block
        # between them forever.
        born = attrs.value_of(Key.TIMESTAMP)
        if born is not None:
            entry.accepted_at = min(now, float(born))
        if carrier is not None:
            # A handoff means the carrier judged us its best chance —
            # clear the block for immediate routed attempts.
            self._credit[key] = ROUTED_BURST
        self.store.sweep(now)
        if self.store.holds(key):
            self._schedule_retry(key, entry.attempts)
        return self.store.get(key)

    # -- acks ------------------------------------------------------------

    def _send_ack(self, key: BlockKey, delivered: bool) -> None:
        node = self.node
        attrs = (
            AttributeVector.builder()
            .actual(Key.CONTROL_KIND, CUSTODY_CONTROL_KIND)
            .actual(Key.INSTANCE, key[0])
            .actual(Key.SEQUENCE, key[1])
            .actual(Key.CUSTODIAN, node.node_id)
            .actual(Key.CONFIDENCE, 1.0 if delivered else 0.0)
            .build()
        )
        message = make_control(
            attrs=attrs,
            origin=node.node_id,
            header_bytes=node.config.header_bytes,
        )
        node._transmit(message)
        self.acks_sent += 1

    def _on_custody_ack(self, message: Message) -> None:
        if message.origin == self.node.node_id:
            return
        attrs = message.attrs
        object_id = attrs.value_of(Key.INSTANCE)
        index = attrs.value_of(Key.SEQUENCE)
        if object_id is None or index is None:
            return
        key: BlockKey = (object_id, int(index))
        delivered = (attrs.value_of(Key.CONFIDENCE) or 0.0) >= 1.0
        if not delivered:
            entry = self.store.get(key)
            if entry is not None and entry.carrier == int(message.origin):
                # The acker is the carrier we accepted this block from:
                # releasing now would move custody backward.  Keep our
                # copy — redundant custody beats stranded custody.
                return
        self._release(key, to=int(message.origin), delivered=delivered)

    def _on_transfer_ack(self, message: Message) -> None:
        """Receiver-side bulk acks flood the network; any custodian that
        overhears one drops the acknowledged blocks — the end-to-end
        release path for custody stranded far from the receiver."""
        attrs = message.attrs
        object_id = attrs.value_of(Key.INSTANCE)
        payload = attrs.value_of(Key.PAYLOAD)
        if object_id is None or not isinstance(payload, bytes):
            return
        try:
            indices = decode_block_list(payload)
        except ValueError:
            return
        for index in indices:
            self._release(
                (object_id, index), to=int(message.origin), delivered=True
            )
        # The ack's DURATION attribute carries the receiver's total
        # received count.  Bulk-acks only name a recent window of
        # indices, so a custodian of an *early* block never sees its
        # index acked — but once the count reaches an entry's known
        # block total the object is complete and every held block of it
        # is delivered.  Release them all.
        received = attrs.value_of(Key.DURATION)
        if received is not None:
            received = int(received)
            done = [
                entry.key
                for entry in self.store.entries()
                if entry.object_id == object_id and received >= entry.total
            ]
            for key in done:
                self._release(key, to=int(message.origin), delivered=True)

    def _release(self, key: BlockKey, to: int, delivered: bool) -> None:
        if not self.store.holds(key):
            return
        now = self.node.sim.now
        self.store.release(key, now, to=to, delivered=delivered)
        self._released_at[key] = now
        self._credit.pop(key, None)
        if not delivered:
            self._handed_to[key] = to
        timer = self._retry.pop(key, None)
        if timer is not None:
            timer.cancel()

    # -- contact trigger -------------------------------------------------

    def _on_interest(self, message: Message) -> None:
        """A matching interest after a gap is a *contact*: demand (or a
        path toward it) just came back — retry held blocks promptly
        instead of waiting out the backoff.  Interests arriving on
        cadence are the connected-path steady state and grant nothing:
        the live transfer layer owns recovery there."""
        # Interests carry *formal* attributes (EQ, not IS), so read the
        # raw attribute value rather than value_of (actuals only).
        type_attr = message.attrs.find(Key.TYPE)
        if type_attr is None or type_attr.value != TRANSFER_TYPE:
            return
        instance_attr = message.attrs.find(Key.INSTANCE)
        wanted = instance_attr.value if instance_attr is not None else None
        now = self.node.sim.now
        stream = "" if wanted is None else str(wanted)
        last = self._last_interest.get(stream)
        self._last_interest[stream] = now
        if last is not None and now - last < CONTACT_GAP:
            return  # on-cadence refresh, not a contact
        keys = [
            entry.key
            for entry in self.store.entries()
            if wanted is None or entry.object_id == wanted
        ]
        if not keys:
            return
        self.contacts += 1
        # Stagger the re-injections serially: a full store firing inside
        # one window is a self-inflicted collision storm on a sparse
        # channel, so space the keys out and jitter each slot.
        spacing = max(0.25, CONTACT_DELAY / len(keys))
        for slot, key in enumerate(keys):
            self._credit[key] = ROUTED_BURST
            delay = (slot + 1) * spacing + self.rng.uniform(0.0, spacing * 0.5)
            self._schedule_retry(key, attempts=None, delay=delay)

    # -- retry loop ------------------------------------------------------

    def _retry_delay(self, attempts: int) -> float:
        delay = min(RETRY_MAX, RETRY_BASE * RETRY_FACTOR ** attempts)
        return delay + self.rng.uniform(0.0, RETRY_JITTER * delay)

    def _schedule_retry(
        self,
        key: BlockKey,
        attempts: Optional[int],
        delay: Optional[float] = None,
    ) -> None:
        timer = self._retry.pop(key, None)
        if timer is not None:
            timer.cancel()
        if delay is None:
            delay = self._retry_delay(attempts or 0)
        self._retry[key] = self.node.sim.schedule(
            delay, self._retry_tick, key, name="dtn.retry"
        )

    def _retry_tick(self, key: BlockKey) -> None:
        self._retry.pop(key, None)
        now = self.node.sim.now
        for stale in self.store.sweep(now):
            timer = self._retry.pop(stale, None)
            if timer is not None:
                timer.cancel()
        entry = self.store.get(key)
        if entry is None:
            return
        if entry.attempts >= MAX_ATTEMPTS:
            self.store.expire_retries(key, now)
            return
        builder = (
            AttributeVector.builder()
            .actual(Key.TYPE, TRANSFER_TYPE)
            .actual(Key.INSTANCE, entry.object_id)
            .actual(Key.SEQUENCE, entry.index)
            .actual(Key.DURATION, entry.total)
            .actual(Key.TIMESTAMP, round(entry.accepted_at, 6))
        )
        matches = self.node.gradients.matching_data(builder.build(), now)
        if matches:
            self._routable_at[entry.object_id] = now
            credit = self._credit.get(key, 0)
            if credit <= 0:
                # Routable but no credit: nothing new has happened, the
                # live transfer machinery owns recovery here, and
                # custody holds as silent insurance.  Keep ticking (no
                # transmission) so a later dark spell still beacons and
                # the age watermark still expires us.
                if self.store.holds(key):
                    self._schedule_retry(key, entry.attempts)
                return
            self._credit[key] = credit - 1
            entry.attempts += 1
            # Demand is back: hand the block to the routing core — on
            # the reinforced path when one exists, as an exploratory
            # re-anchor otherwise.  No CUSTODIAN attribute: neighbors
            # must not chain-custody a routed flood (a single dark
            # block would end up custodied network-wide); custody stays
            # here until an ack or the age watermark releases it.
            reinforced = self.node.config.enable_reinforcement and any(
                e.reinforced_neighbors(self.node.node_id, now)
                for e in matches
            )
            mode = "routed"
            attrs = builder.build().with_attribute(
                Attribute.blob(Key.PAYLOAD, Operator.IS, entry.payload)
            )
            message = make_data(
                attrs=attrs,
                origin=self.node.node_id,
                exploratory=not reinforced,
                header_bytes=self.node.config.header_bytes,
            )
        else:
            routable = self._routable_at.get(entry.object_id)
            if (
                routable is not None
                and now - routable < BEACON_GRACE
            ):
                # Demand was here moments ago — this darkness is far
                # more likely a couple of congestion-dropped interest
                # refreshes than a real disruption, and beaconing into
                # congestion amplifies it.  Hold quiet through the
                # grace; a refresh normally lands well before it ends.
                if self.store.holds(key):
                    self._schedule_retry(key, entry.attempts)
                return
            # Still dark: one-hop carrier beacon, looking for a mule or
            # a neighbor with a live path.  The CUSTODIAN attribute
            # marks it as a handoff offer.  Refresh the routed credit so
            # the first routable tick after this spell fires without
            # waiting for an interest refresh.
            self._credit[key] = ROUTED_BURST
            entry.attempts += 1
            mode = "beacon"
            attrs = (
                builder.actual(Key.CUSTODIAN, self.node.node_id)
                .build()
                .with_attribute(
                    Attribute.blob(Key.PAYLOAD, Operator.IS, entry.payload)
                )
            )
            message = make_data(
                attrs=attrs,
                origin=self.node.node_id,
                exploratory=True,
                header_bytes=self.node.config.header_bytes,
            )
        message.parent_trace = entry.trace
        self.reinjections += 1
        self.node.trace.emit(
            now, "custody.reinject", node=self.node.node_id,
            object=entry.object_id, index=entry.index,
            trace=message.trace_id, parent=entry.trace,
            mode=mode, attempt=entry.attempts,
        )
        if mode == "routed":
            self.node.send_message(message, self.handle)
        else:
            # The beacon bypasses the core, so mark it seen in our own
            # duplicate cache first — a routable neighbor may flood it
            # back, and re-forwarding our own block at a new hop count
            # would be a forwarding loop.
            self.beacons += 1
            self.node.cache.seen_before(("data", message.unique_id), now)
            self.node.send_message_to_next(message, self.handle)
        if self.store.holds(key):
            if mode == "routed":
                # Space follow-up routed shots a full backoff cap
                # apart: the first shot plus the transfer layer's own
                # machinery usually release custody well before a
                # second is due, and a credit burst burned on the
                # short backoff is just a flood storm.
                delay = RETRY_MAX
                delay += self.rng.uniform(0.0, RETRY_JITTER * delay)
                self._schedule_retry(key, attempts=None, delay=delay)
            else:
                self._schedule_retry(key, entry.attempts)

    # -- lifecycle -------------------------------------------------------

    def detach(self) -> None:
        if self.handle is not None:
            self.node.remove_filter(self.handle)
            self.handle = None
        for timer in self._retry.values():
            timer.cancel()
        self._retry.clear()
