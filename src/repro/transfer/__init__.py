"""Reliable transfer of large, persistent data objects over diffusion.

Paper Section 3.1: "Recovery from data loss is currently left to the
application.  While simple applications with transient data ... need no
additional recovery mechanism, we are also developing retransmission
scheme for applications that transfer large, persistent data objects."

This package is that scheme (the design later published as RMST): an
object is split into blocks, each a named diffusion data message; the
receiver tracks a hole map and requests missing blocks with NACKs that
travel as ordinary named data back toward the source; blocks and
repairs ride the same gradients as everything else.
"""

from repro.transfer.blocks import BLOCK_PAYLOAD_BYTES, DataObject, split_object
from repro.transfer.sender import (
    ACK_TYPE,
    REPAIR_TYPE,
    TRANSFER_TYPE,
    BlockSender,
)
from repro.transfer.receiver import BlockReceiver, TransferStats
from repro.transfer.caching import BlockCacheFilter

__all__ = [
    "ACK_TYPE",
    "REPAIR_TYPE",
    "TRANSFER_TYPE",
    "DataObject",
    "split_object",
    "BLOCK_PAYLOAD_BYTES",
    "BlockSender",
    "BlockReceiver",
    "TransferStats",
    "BlockCacheFilter",
]
