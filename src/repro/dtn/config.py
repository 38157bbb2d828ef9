"""Tuning knobs for the custody layer.

Everything here is opt-in per campaign: a node without a custody agent
runs the legacy stack, so "off" is not attaching one.  The retry
schedule and the contact / beacon timers no run varies are constants of
:mod:`repro.dtn.agent`, where they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DtnConfig:
    """Per-node custody policy: the store's watermarks and energy
    budget."""

    #: custody depth watermark — oldest-first eviction beyond this.
    capacity: int = 64
    #: custody age watermark (seconds) — older entries expire (never
    #: silently: every eviction emits ``custody.expire`` + a
    #: ``path.drop`` with a ``custody.*`` reason).
    max_age: float = 120.0
    #: energy awareness: refuse *new* custody once the node has spent
    #: this many joules (None = never refuse on energy grounds).
    energy_budget: Optional[float] = None
