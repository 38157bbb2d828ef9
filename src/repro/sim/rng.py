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
