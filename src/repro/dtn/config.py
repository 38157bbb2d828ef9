"""Tuning knobs for the custody layer.

Everything here is opt-in per campaign: a node without a custody agent
runs the legacy stack, so "off" is not attaching one.  What no run
varies is a constant where it is read: the store's depth and age
watermarks in :mod:`repro.dtn.custody`, the retry schedule and the
contact / beacon timers in :mod:`repro.dtn.agent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DtnConfig:
    """Per-node custody policy: the store's energy budget."""

    #: energy awareness: refuse *new* custody once the node has spent
    #: this many joules (None = never refuse on energy grounds).
    energy_budget: Optional[float] = None
