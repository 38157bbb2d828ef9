"""In-network block caching: hop-by-hop repair.

Paper Section 3.1: "Data is cached at intermediate nodes as it
propagates toward sinks.  Cached data is used for several purposes ...
[including] application-specific, in-network processing."  Applied to
bulk transfer, caching turns end-to-end retransmission into hop-by-hop
recovery: a repair request is answered by the *nearest* node holding
the block, so repairs cost one or two hops instead of a full
source-round-trip — the reason RMST places caches inside the network.

:class:`BlockCacheFilter` does both halves:

* data path — block messages passing through the node are copied into a
  bounded LRU cache;
* repair path — repair requests passing through are checked against the
  cache; hits are served locally (the served indices are stripped from
  the request before it continues upstream; a fully served request is
  absorbed).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Tuple

from repro.core.filter_api import FilterHandle, GRADIENT_FILTER_PRIORITY
from repro.core.messages import Message, make_data
from repro.core.node import DiffusionNode
from repro.naming import Attribute, AttributeVector, Operator
from repro.naming.keys import Key
from repro.transfer.sender import (
    REPAIR_TYPE,
    TRANSFER_TYPE,
    decode_block_list,
    encode_block_list,
)

BlockKey = Tuple[str, int]  # (object id, block index)

#: above the custody agent (+20) and the gradient core: a cache hit is
#: served before anything downstream sees the request.
CACHE_FILTER_PRIORITY = GRADIENT_FILTER_PRIORITY + 30


class BlockCacheFilter:
    """Caches transfer blocks and serves repairs from the cache."""

    def __init__(
        self,
        node: DiffusionNode,
        capacity: int = 128,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.node = node
        self.capacity = capacity
        # (object, index) -> (payload, block_count)
        self._cache: "OrderedDict[BlockKey, Tuple[bytes, int]]" = OrderedDict()
        self.blocks_cached = 0
        self.repairs_served_locally = 0
        self.requests_absorbed = 0
        self.requests_trimmed = 0
        # One filter sees both block data and repair requests.
        self.handle = node.add_filter(
            AttributeVector(), CACHE_FILTER_PRIORITY, self._callback,
            name="block-cache",
        )

    def __len__(self) -> int:
        return len(self._cache)

    def cached_blocks(self, object_id: str):
        return sorted(i for (oid, i) in self._cache if oid == object_id)

    # -- pipeline ---------------------------------------------------------

    def _callback(self, message: Message, handle: FilterHandle) -> None:
        if message.msg_type.is_data:
            msg_type = message.attrs.value_of(Key.TYPE)
            if msg_type == TRANSFER_TYPE:
                self._cache_block(message)
            elif msg_type == REPAIR_TYPE:
                if self._handle_repair_request(message):
                    return  # fully served: absorb the request
        self.node.send_message(message, handle)

    # -- data path --------------------------------------------------------------

    def _cache_block(self, message: Message) -> None:
        object_id = message.attrs.value_of(Key.INSTANCE)
        index = message.attrs.value_of(Key.SEQUENCE)
        total = message.attrs.value_of(Key.DURATION)
        payload = message.attrs.value_of(Key.PAYLOAD)
        if (
            object_id is None
            or index is None
            or total is None
            or not isinstance(payload, bytes)
        ):
            return
        key = (object_id, int(index))
        if key not in self._cache:
            self.blocks_cached += 1
        self._cache[key] = (payload, int(total))
        self._cache.move_to_end(key)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)

    # -- repair path ----------------------------------------------------------------

    def _handle_repair_request(self, message: Message) -> bool:
        """Serve what we can; returns True when nothing is left to ask."""
        object_id = message.attrs.value_of(Key.INSTANCE)
        payload = message.attrs.value_of(Key.PAYLOAD)
        if object_id is None or not isinstance(payload, bytes):
            return False
        try:
            wanted = decode_block_list(payload)
        except ValueError:
            return False
        if not wanted:
            return False  # status probes go to the real sender
        hits = [i for i in wanted if (object_id, i) in self._cache]
        misses = [i for i in wanted if (object_id, i) not in self._cache]
        for index in hits:
            self._serve_block(object_id, index)
        if not hits:
            return False
        if misses:
            # Trim the request: upstream only needs the blocks we lack.
            self.requests_trimmed += 1
            trimmed = message.attrs.without_key(Key.PAYLOAD).with_attribute(
                Attribute.blob(Key.PAYLOAD, Operator.IS, encode_block_list(misses))
            )
            self.node.send_message(
                replace(message, attrs=trimmed), self.handle
            )
            return True  # the original message must not continue as-is
        self.requests_absorbed += 1
        return True

    def _serve_block(self, object_id: str, index: int) -> None:
        payload, total = self._cache[(object_id, index)]
        attrs = (
            AttributeVector.builder()
            .actual(Key.TYPE, TRANSFER_TYPE)
            .actual(Key.INSTANCE, object_id)
            .actual(Key.SEQUENCE, index)
            .actual(Key.DURATION, total)
            .build()
            .with_attribute(Attribute.blob(Key.PAYLOAD, Operator.IS, payload))
        )
        # Inject as a locally originated exploratory data message so it
        # floods toward whoever is asking, like a sender repair would.
        served = make_data(
            attrs=attrs,
            origin=self.node.node_id,
            exploratory=True,
            header_bytes=self.node.config.header_bytes,
        )
        self.repairs_served_locally += 1
        self.node.send_message(served, self.handle)
