"""Sender side of the block-transfer scheme.

The sender publishes blocks under ``(TYPE IS <transfer type>, INSTANCE
IS <object id>)``, paces them out, and subscribes to repair requests for
its objects.  A repair request names missing block indices; the sender
re-sends exactly those blocks.  Both block and repair traffic are plain
named data — no new mechanism below the application.

Disruption tolerance is opt-in: ``reliable=True`` (plus a per-node
``make_rng`` stream) arms per-block retransmission timers on the sim
kernel — a block stays on a jittered exponential-backoff schedule until
the receiver's ``bulk-ack`` covers it or the bounded retry budget runs
out.  Without it the sender behaves exactly as before (the DTN
equivalence gate depends on that).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Set, Tuple

from repro.core.api import DiffusionRouting, PublicationHandle
from repro.naming import Attribute, AttributeVector, Operator
from repro.naming.keys import Key
from repro.sim.metrics import current_registry
from repro.transfer.blocks import DataObject

TRANSFER_TYPE = "bulk-transfer"
REPAIR_TYPE = "bulk-repair"
ACK_TYPE = "bulk-ack"


# Hop-by-hop NACK/ACK retransmission (DTN mode).  Retry ``n`` of a
# block waits ``min(MAX_TIMEOUT, ACK_TIMEOUT * BACKOFF_FACTOR**n)``
# seconds plus a uniform seed-deterministic jitter draw in
# ``[0, RETRY_JITTER * delay)``.
ACK_TIMEOUT = 10.0
BACKOFF_FACTOR = 2.0
MAX_TIMEOUT = 40.0
RETRY_JITTER = 0.4
MAX_RETRANSMITS = 4
#: retries below this count re-send on the reinforced path; only later
#: ones flood (silence may mean the path itself is gone, but flooding
#: every retry congests the channel it is trying to heal).
FLOOD_AFTER = 3
#: receiver side — acknowledge after every this many fresh blocks.
ACK_EVERY = 8
#: receiver side — how many recent indices one ack enumerates.
ACK_WINDOW = 16
#: Pause between the first (exploratory) block and the stream: the
#: first block's flood triggers reinforcement, and plain blocks sent
#: before the path is reinforced are dropped.
RAMPUP_DELAY = 1.5


def encode_block_list(indices) -> bytes:
    """Missing-block list as a compact uint16 vector."""
    return b"".join(struct.pack("<H", i) for i in sorted(indices))


def decode_block_list(payload: bytes):
    if len(payload) % 2:
        raise ValueError("repair payload must be uint16-aligned")
    return [
        struct.unpack_from("<H", payload, offset)[0]
        for offset in range(0, len(payload), 2)
    ]


class BlockSender:
    """Serves one or more objects to interested receivers."""

    def __init__(
        self,
        api: DiffusionRouting,
        block_interval: float = 0.5,
        reliable: bool = False,
        rng=None,
    ) -> None:
        self.api = api
        self.block_interval = block_interval
        self.reliable = reliable
        self.rng = rng
        self.objects: Dict[str, DataObject] = {}
        self.blocks_sent = 0
        self.repairs_served = 0
        self.retransmits = 0
        self.acks_received = 0
        #: (object id, index) -> trace ids of every transmitted copy;
        #: the dtn scenario joins these against ``path.drop`` records
        #: to attribute every lost block to a cause.
        self.block_traces: Dict[Tuple[str, int], List[str]] = {}
        registry = current_registry()
        if registry:
            registry.counter(
                "transfer.blocks_sent", lambda: self.blocks_sent
            )
            registry.counter(
                "transfer.repairs_served", lambda: self.repairs_served
            )
            registry.counter(
                "transfer.retransmits", lambda: self.retransmits
            )
            registry.counter(
                "transfer.acks_received", lambda: self.acks_received
            )
        self._publications: Dict[str, PublicationHandle] = {}
        self._acked: Dict[str, Set[int]] = {}
        self._retry: Dict[Tuple[str, int], object] = {}
        self._tries: Dict[Tuple[str, int], int] = {}
        # Listen for repair requests for any object we serve.
        repair_sub = (
            AttributeVector.builder()
            .eq(Key.TYPE, REPAIR_TYPE)
            .build()
        )
        self.api.subscribe(repair_sub, self._on_repair_request)
        if reliable:
            if self.rng is None:
                raise ValueError(
                    "reliable requires a per-node rng (make_rng stream)"
                )
            ack_sub = (
                AttributeVector.builder()
                .eq(Key.TYPE, ACK_TYPE)
                .build()
            )
            self.api.subscribe(ack_sub, self._on_ack)

    def offer(self, obj: DataObject, start: float = 0.0) -> None:
        """Register an object and start streaming its blocks."""
        if obj.object_id in self.objects:
            raise ValueError(f"object {obj.object_id!r} already offered")
        self.objects[obj.object_id] = obj
        self._publications[obj.object_id] = self.api.publish(
            AttributeVector.builder()
            .actual(Key.TYPE, TRANSFER_TYPE)
            .actual(Key.INSTANCE, obj.object_id)
            .build()
        )
        sim = self.api.node.sim
        sim.schedule(start, self._send_block, obj.object_id, 0)

    # -- streaming -------------------------------------------------------

    #: every Nth streamed block floods as exploratory, re-anchoring the
    #: reinforced path mid-transfer (mirrors diffusion's data cadence)
    EXPLORATORY_STRIDE = 10

    def _send_block(self, object_id: str, index: int) -> None:
        obj = self.objects.get(object_id)
        if obj is None or index >= obj.block_count:
            return
        self._transmit_block(
            obj, index, force_exploratory=(index % self.EXPLORATORY_STRIDE == 0)
        )
        delay = RAMPUP_DELAY if index == 0 else self.block_interval
        self.api.node.sim.schedule(
            delay, self._send_block, object_id, index + 1,
            name="transfer.block",
        )

    def _transmit_block(
        self, obj: DataObject, index: int, force_exploratory: bool = False
    ) -> None:
        attrs = (
            AttributeVector.builder()
            .actual(Key.SEQUENCE, index)
            .actual(Key.DURATION, obj.block_count)  # total, for hole maps
            .build()
            .with_attribute(
                Attribute.blob(Key.PAYLOAD, Operator.IS, obj.block_payload(index))
            )
        )
        message = self.api.send(
            self._publications[obj.object_id],
            attrs,
            force_exploratory=force_exploratory,
        )
        self.blocks_sent += 1
        if message is not None:
            self.block_traces.setdefault(
                (obj.object_id, index), []
            ).append(message.trace_id)
        if self.reliable:
            self._arm_retransmit(obj.object_id, index)

    # -- repair ------------------------------------------------------------

    def _on_repair_request(self, attrs: AttributeVector, message) -> None:
        object_id = attrs.value_of(Key.INSTANCE)
        payload = attrs.value_of(Key.PAYLOAD)
        obj = self.objects.get(object_id)
        if obj is None or not isinstance(payload, bytes):
            return
        sim = self.api.node.sim
        indices = decode_block_list(payload)
        if not indices:
            # Empty NACK: the receiver has heard nothing at all and is
            # probing for the object; answer with the first block.
            indices = [0]
        for offset, index in enumerate(indices):
            if 0 <= index < obj.block_count:
                self.repairs_served += 1
                # Repairs are loss-recovery traffic: flood them so they
                # make progress even when the reinforced path is stale.
                sim.schedule(
                    offset * self.block_interval,
                    self._transmit_block,
                    obj,
                    index,
                    True,
                    name="transfer.repair",
                )

    # -- acknowledged retransmission (DTN mode) -----------------------------

    def acked_blocks(self, object_id: str) -> Set[int]:
        return set(self._acked.get(object_id, ()))

    def _arm_retransmit(self, object_id: str, index: int) -> None:
        key = (object_id, index)
        if index in self._acked.get(object_id, ()):
            return
        timer = self._retry.get(key)
        if timer is not None:
            timer.cancel()
        tries = self._tries.get(key, 0)
        delay = min(MAX_TIMEOUT, ACK_TIMEOUT * BACKOFF_FACTOR ** tries)
        delay += self.rng.uniform(0.0, RETRY_JITTER * delay)
        self._retry[key] = self.api.node.sim.schedule(
            delay, self._retransmit_tick, object_id, index,
            name="transfer.retransmit",
        )

    def _retransmit_tick(self, object_id: str, index: int) -> None:
        key = (object_id, index)
        self._retry.pop(key, None)
        if index in self._acked.get(object_id, ()):
            return
        obj = self.objects.get(object_id)
        if obj is None:
            return
        tries = self._tries.get(key, 0) + 1
        self._tries[key] = tries
        if tries > MAX_RETRANSMITS:
            return  # budget spent; NACK repair remains the backstop
        self.retransmits += 1
        self._transmit_block(
            obj, index,
            force_exploratory=(tries >= FLOOD_AFTER),
        )

    def _on_ack(self, attrs: AttributeVector, message) -> None:
        object_id = attrs.value_of(Key.INSTANCE)
        payload = attrs.value_of(Key.PAYLOAD)
        obj = self.objects.get(object_id)
        if obj is None or not isinstance(payload, bytes):
            return
        try:
            indices = decode_block_list(payload)
        except ValueError:
            return
        self.acks_received += 1
        acked = self._acked.setdefault(object_id, set())
        received = attrs.value_of(Key.DURATION)
        if received is not None and int(received) >= obj.block_count:
            # Completion ack: everything arrived; stand down entirely.
            indices = range(obj.block_count)
        for index in indices:
            acked.add(index)
            timer = self._retry.pop((object_id, index), None)
            if timer is not None:
                timer.cancel()
