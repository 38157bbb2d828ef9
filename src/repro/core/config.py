"""Tunable protocol parameters.

Defaults follow the paper's testbed configuration (Section 6.1):
interests re-flooded every 60 s, one exploratory message per ten data
messages, ~127-byte messages on a 13 kb/s radio.  Every field below is
set by some run or campaign; a value no run varies is a constant (the
duplicate cache's size is :attr:`DiffusionConfig.cache_capacity`, its
60 s entry lifetime :class:`~repro.core.cache.DataCache`'s default, the
propagation mode :func:`repro.hierarchy.install_hierarchy`'s argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Optional, Type, TypeVar

C = TypeVar("C")


def config_from_object(cls: Type[C], raw: Optional[Any], name: str) -> C:
    """``cls(**raw)`` for a plain (JSON-borne) object; ``None`` is the
    defaults.  A key that names no field is refused: a misspelt override
    would otherwise run the default under the wrong label."""
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ValueError(f"{name} must be an object, got {raw!r}")
    known = sorted(f.name for f in fields(cls))
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(
            f"{name} has no {', '.join(unknown)}; known: {', '.join(known)}"
        )
    return cls(**raw)


@dataclass
class DiffusionConfig:
    """Knobs for the diffusion core.

    Attributes:
        interest_interval: seconds between interest re-floods from a sink
            ("interest messages (sent every 60s and flooded from each
            node)").
        interest_jitter: uniform jitter applied to interest origination
            and to rebroadcasts, decorrelating the flood.
        reinforcement_jitter: upper bound of the random delay before a
            reinforcement is transmitted.  Reinforcements are triggered
            by exploratory data, i.e. exactly while a network-wide flood
            is in progress; the delay lets the flood drain so the
            unicast reinforcement is not clobbered by hidden terminals.
        gradient_timeout: seconds a gradient survives without refresh;
            comfortably above interest_interval so one lost flood does
            not tear paths down.
        exploratory_interval: seconds between exploratory messages from
            a publication ("exploratory messages every 60s" on the
            testbed; with one data message per 6 s that is the paper's
            1:10 exploratory:data ratio).  A send is exploratory when at
            least this long has passed since the last exploratory one.
        reinforced_timeout: seconds a reinforced gradient survives
            without a fresh reinforcement.
        push_mode: one-phase push diffusion.  Sinks do not flood
            interests; sources advertise with exploratory data floods
            carrying their publication signature, and nodes whose local
            subscriptions match reinforce back toward the source.  Push
            wins when sinks are plentiful and sources few (the
            advertisement flood is paid once, no interest refresh
            traffic); pull wins in the paper's query-style workloads.
            All nodes of a network must agree on the mode.
        multipath_degree: how many distinct neighbors a sink reinforces
            per exploratory generation.  1 is classic single-path
            diffusion; higher values implement the paper's Section 6.4
            future-work idea of sending "similar data over multiple
            paths to gain robustness when faced with low-quality
            links", trading duplicate transmissions for delivery.
        enable_reinforcement: when False the protocol degenerates to pure
            flooding (ablation: two-phase pull vs flooding).
    """

    #: fixed per-message header charged on the wire in addition to the
    #: encoded attributes (a class constant: no run varies it).
    header_bytes: ClassVar[int] = 24
    #: entries in the core's duplicate-suppression cache, its own loop
    #: prevention (distinct from application-level aggregation filters).
    cache_capacity: ClassVar[int] = 512

    interest_interval: float = 60.0
    interest_jitter: float = 2.0
    reinforcement_jitter: float = 1.0
    gradient_timeout: float = 150.0
    exploratory_interval: float = 60.0
    reinforced_timeout: float = 150.0
    multipath_degree: int = 1
    push_mode: bool = False
    enable_reinforcement: bool = True

    def validate(self) -> None:
        # ``not value > 0`` and ``isfinite``: NaN fails every comparison,
        # so a plain ``value <= 0`` would let it through to the timers.
        for key in ("interest_interval", "exploratory_interval",
                    "gradient_timeout", "reinforced_timeout"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        for key in ("interest_jitter", "reinforcement_jitter"):
            value = getattr(self, key)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(
                    f"{key} must be non-negative and finite, got {value!r}"
                )
        if not self.interest_interval > 0:
            raise ValueError("interest_interval must be positive")
        if not self.exploratory_interval > 0:
            raise ValueError("exploratory_interval must be positive")
        if self.gradient_timeout <= self.interest_interval:
            raise ValueError("gradient_timeout should exceed interest_interval")
        if self.multipath_degree < 1:
            raise ValueError("multipath_degree must be >= 1")
