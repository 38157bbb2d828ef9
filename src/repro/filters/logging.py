"""Monitoring/debugging filter.

Section 3.3: "In addition to these applications, we have found them
[filters] very useful for debugging and monitoring."  This filter is
transparent: it records what passes and always forwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.filter_api import FilterHandle
from repro.core.messages import Message, MessageType
from repro.core.node import DiffusionNode
from repro.naming import AttributeVector


@dataclass
class LoggedMessage:
    """One observation of a message passing through the node."""

    time: float
    msg_type: MessageType
    origin: int
    last_hop: Optional[int]
    nbytes: int


#: high above every other filter, so the tap sees each message first.
LOGGING_FILTER_PRIORITY = 200


class LoggingFilter:
    """Transparent tap on a node's message pipeline."""

    def __init__(self, node: DiffusionNode, max_records: int = 10_000) -> None:
        self.node = node
        self.max_records = max_records
        self.records: List[LoggedMessage] = []
        self.counts: Dict[MessageType, int] = {t: 0 for t in MessageType}
        self.bytes: Dict[MessageType, int] = {t: 0 for t in MessageType}
        self.handle = node.add_filter(
            AttributeVector(),
            LOGGING_FILTER_PRIORITY,
            self._callback,
            name="logging",
        )

    def _callback(self, message: Message, handle: FilterHandle) -> None:
        self.counts[message.msg_type] += 1
        self.bytes[message.msg_type] += message.nbytes
        if len(self.records) < self.max_records:
            self.records.append(
                LoggedMessage(
                    time=self.node.sim.now,
                    msg_type=message.msg_type,
                    origin=message.origin,
                    last_hop=message.last_hop,
                    nbytes=message.nbytes,
                )
            )
        self.node.send_message(message, handle)

    @property
    def total_messages(self) -> int:
        return sum(self.counts.values())

    def remove(self) -> None:
        self.node.remove_filter(self.handle)
