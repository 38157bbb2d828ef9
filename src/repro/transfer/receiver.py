"""Receiver side of the block-transfer scheme.

Subscribes to an object's blocks, maintains a hole map, and issues NACK
repair requests after the stream goes quiet with holes outstanding.
Repair requests are published as named data (``TYPE IS bulk-repair``)
that the sender has subscribed to, so they travel on ordinary
gradients.  Retries are bounded; completion delivers the reassembled
object through a callback with checksum intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.api import DiffusionRouting
from repro.naming import Attribute, AttributeVector, Operator
from repro.naming.keys import Key
from repro.sim.metrics import current_registry
from repro.transfer.blocks import join_blocks
from repro.transfer.sender import (
    ACK_EVERY,
    ACK_TYPE,
    ACK_WINDOW,
    REPAIR_TYPE,
    RETRY_JITTER,
    TRANSFER_TYPE,
    encode_block_list,
)

#: holes one NACK names at most.
REPAIR_BATCH = 16
#: NACK rounds back off exponentially by this factor: early rounds race
#: the interest/gradient plumbing, so spreading retries over a longer
#: horizon is what lets a lossy network converge.
NACK_BACKOFF = 1.5


@dataclass
class TransferStats:
    """Observability for one in-progress/finished transfer."""

    object_id: str
    blocks_expected: Optional[int] = None
    blocks_received: int = 0
    duplicate_blocks: int = 0
    repair_rounds: int = 0
    completed_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None


class BlockReceiver:
    """Fetches one object and delivers it on completion."""

    def __init__(
        self,
        api: DiffusionRouting,
        object_id: str,
        on_complete: Callable[[bytes, TransferStats], None],
        quiet_timeout: float = 5.0,
        max_repair_rounds: int = 10,
        max_quiet_timeout: float = 30.0,
        reliable: bool = False,
        rng=None,
    ) -> None:
        self.api = api
        self.object_id = object_id
        self.on_complete = on_complete
        self.quiet_timeout = quiet_timeout
        self.max_repair_rounds = max_repair_rounds
        self.max_quiet_timeout = max_quiet_timeout
        # DTN mode: acknowledge received blocks (releases sender timers
        # and network custody), jitter the NACK schedule from the
        # per-node rng stream, and keep probing at the capped cadence
        # instead of failing permanently, so the transfer outlives
        # connectivity gaps.
        self.reliable = reliable
        self.rng = rng
        if reliable and rng is None:
            raise ValueError(
                "reliable requires a per-node rng (make_rng stream)"
            )
        self.stats = stats = TransferStats(object_id=object_id)
        self.acks_sent = 0
        registry = current_registry()
        if registry:
            registry.counter(
                "transfer.blocks_received", lambda: stats.blocks_received
            )
            registry.counter(
                "transfer.duplicate_blocks", lambda: stats.duplicate_blocks
            )
            registry.counter(
                "transfer.repair_rounds", lambda: stats.repair_rounds
            )
            registry.counter(
                "transfer.completed", lambda: int(stats.complete)
            )
            registry.counter("transfer.acks_sent", lambda: self.acks_sent)
        self._blocks: Dict[int, bytes] = {}
        self._quiet_timer = None
        self._failed = False
        self._ack_pub = None
        self._fresh_since_ack: List[int] = []
        block_sub = (
            AttributeVector.builder()
            .eq(Key.TYPE, TRANSFER_TYPE)
            .eq(Key.INSTANCE, object_id)
            .build()
        )
        api.subscribe(block_sub, self._on_block)
        self._repair_pub = api.publish(
            AttributeVector.builder()
            .actual(Key.TYPE, REPAIR_TYPE)
            .actual(Key.INSTANCE, object_id)
            .build()
        )
        if reliable:
            self._ack_pub = api.publish(
                AttributeVector.builder()
                .actual(Key.TYPE, ACK_TYPE)
                .actual(Key.INSTANCE, object_id)
                .build()
            )
        self._arm_quiet_timer()

    # -- block arrival ------------------------------------------------------

    def _on_block(self, attrs: AttributeVector, message) -> None:
        if self.stats.complete or self._failed:
            return
        index = attrs.value_of(Key.SEQUENCE)
        total = attrs.value_of(Key.DURATION)
        payload = attrs.value_of(Key.PAYLOAD)
        if index is None or total is None or not isinstance(payload, bytes):
            return
        index, total = int(index), int(total)
        if self.stats.blocks_expected is None:
            self.stats.blocks_expected = total
        if index in self._blocks:
            self.stats.duplicate_blocks += 1
        else:
            self._blocks[index] = payload
            self.stats.blocks_received += 1
            if self.reliable:
                self._fresh_since_ack.append(index)
                if len(self._fresh_since_ack) >= ACK_EVERY:
                    self._send_ack()
        self._arm_quiet_timer()
        if len(self._blocks) == self.stats.blocks_expected:
            self._finish()

    # -- hole repair ------------------------------------------------------------

    def missing_blocks(self) -> List[int]:
        if self.stats.blocks_expected is None:
            return []
        return [
            i for i in range(self.stats.blocks_expected) if i not in self._blocks
        ]

    def _current_quiet_timeout(self) -> float:
        timeout = min(
            self.max_quiet_timeout,
            self.quiet_timeout * NACK_BACKOFF ** self.stats.repair_rounds,
        )
        if self.reliable:
            # Seed-deterministic jitter desynchronizes co-located
            # receivers' NACK rounds (DTN mode only; the legacy path
            # draws nothing and stays bit-identical).
            timeout += self.rng.uniform(0.0, RETRY_JITTER * timeout)
        return timeout

    def _arm_quiet_timer(self) -> None:
        if self._quiet_timer is not None:
            self._quiet_timer.cancel()
        self._quiet_timer = self.api.node.sim.schedule(
            self._current_quiet_timeout(), self._on_quiet, name="transfer.quiet"
        )

    def _on_quiet(self) -> None:
        if self.stats.complete or self._failed:
            return
        holes = self.missing_blocks()
        if not holes and self.stats.blocks_expected is not None:
            self._finish()
            return
        if self.stats.repair_rounds >= self.max_repair_rounds:
            if not self.reliable:
                self._failed = True
                return
            # Reliable (DTN) mode: the transfer outlives connectivity
            # gaps — keep probing at the capped cadence so a healed
            # partition or an arriving data mule finds live demand.
        self.stats.repair_rounds += 1
        # An empty block list is a status probe: "I have heard nothing,
        # does this object exist?" — the sender answers with block 0.
        batch = holes[:REPAIR_BATCH]
        attrs = AttributeVector.builder().actual(
            Key.SEQUENCE, self.stats.repair_rounds
        ).build().with_attribute(
            Attribute.blob(Key.PAYLOAD, Operator.IS, encode_block_list(batch))
        )
        # Repair requests are rare control traffic; flooding them
        # guarantees they reach the sender regardless of path state.
        self.api.send(self._repair_pub, attrs, force_exploratory=True)
        self._arm_quiet_timer()

    # -- completion ------------------------------------------------------------------

    def _finish(self) -> None:
        self.stats.completed_at = self.api.node.sim.now
        if self._quiet_timer is not None:
            self._quiet_timer.cancel()
        if self.reliable:
            self._send_ack()  # completion ack: sender stands down
        data = join_blocks(
            [self._blocks[i] for i in range(self.stats.blocks_expected)]
        )
        self.on_complete(data, self.stats)

    # -- acknowledgement (DTN mode) -----------------------------------------

    def _send_ack(self) -> None:
        """Flood a ``bulk-ack`` naming recently received blocks.

        The ack releases the sender's per-block retransmission timers
        and — because it floods network-wide — any custody agent still
        carrying an acknowledged block (``custody.transfer``).  The
        DURATION attribute carries the total received count so a
        completion ack stands the sender down entirely.
        """
        window = self._fresh_since_ack[-ACK_WINDOW:]
        if not window and not self.stats.complete:
            window = sorted(self._blocks)[-ACK_WINDOW:]
        self._fresh_since_ack = []
        attrs = (
            AttributeVector.builder()
            .actual(Key.SEQUENCE, self.acks_sent)
            .actual(Key.DURATION, len(self._blocks))
            .build()
            .with_attribute(
                Attribute.blob(
                    Key.PAYLOAD, Operator.IS, encode_block_list(window)
                )
            )
        )
        self.acks_sent += 1
        # Acks are rare control traffic, flooded like repair requests.
        self.api.send(self._ack_pub, attrs, force_exploratory=True)

    @property
    def failed(self) -> bool:
        return self._failed
