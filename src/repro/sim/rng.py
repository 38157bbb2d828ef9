"""Deterministic random-number plumbing.

Every stochastic component (MAC backoff, link loss, sensor jitter) draws
from its own :class:`random.Random` stream derived from one experiment
seed, so a run is reproducible bit-for-bit and components can be ablated
without perturbing each other's streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer: a 64-bit ``x`` (any int,
    read modulo 2**64) to a well-mixed 64-bit value."""
    x = (x + _GOLDEN) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(root_seed: int, label: str) -> int:
    """The seed an RNG stream named ``label`` would be built from."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(root_seed: int, label: str) -> random.Random:
    """Return an independent RNG stream named ``label``."""
    return random.Random(derive_seed(root_seed, label))


class SeedSequence:
    """Hands out named, independent RNG streams from a single root seed."""

    def __init__(self, root_seed: int = 1) -> None:
        self.root_seed = root_seed
        self._issued: dict = {}

    def stream(self, label: Union[str, int]) -> random.Random:
        """Return (and memoize) the stream for ``label``."""
        key = str(label)
        if key not in self._issued:
            self._issued[key] = make_rng(self.root_seed, key)
        return self._issued[key]

    def child(self, label: Union[str, int]) -> "SeedSequence":
        """Derive a nested sequence, e.g. per-node seeders."""
        return SeedSequence(derive_seed(self.root_seed, f"child:{label}"))
