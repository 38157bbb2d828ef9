"""Duplicate-suppression / loop-prevention cache.

"The core diffusion mechanism uses the cache to suppress duplicate
messages and prevent loops" (Section 3.1).  Entries are message
identities (origin, msg_id); capacity-bounded LRU with time expiry so
micro-diffusion can run it in a 10-entry footprint.  A hit moves a key
to the back of the eviction order without extending its expiry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable


class DataCache:
    """Bounded seen-set with per-entry expiry, evicting the least
    recently seen key beyond ``capacity``."""

    def __init__(self, capacity: int = 512, timeout: float = 60.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.timeout = timeout
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def seen_before(self, key: Hashable, now: float) -> bool:
        """Check-and-insert: True when ``key`` was already cached.

        Inserting on miss is the common case for loop prevention, so the
        two operations are fused.
        """
        expiry = self._entries.get(key)
        if expiry is not None and expiry > now:
            self.hits += 1
            self._entries.move_to_end(key)
            return True
        self.misses += 1
        self._entries[key] = now + self.timeout
        self._entries.move_to_end(key)
        self._evict(now)
        return False

    def contains(self, key: Hashable, now: float) -> bool:
        """Pure lookup without insertion."""
        expiry = self._entries.get(key)
        return expiry is not None and expiry > now

    def insert(self, key: Hashable, now: float) -> None:
        self._entries[key] = now + self.timeout
        self._entries.move_to_end(key)
        self._evict(now)

    def _evict(self, now: float) -> None:
        # Drop expired entries first, then oldest beyond capacity.
        expired = [k for k, exp in self._entries.items() if exp <= now]
        for key in expired:
            del self._entries[key]
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
