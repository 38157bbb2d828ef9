"""Tuning knobs for the custody layer.

Everything here is opt-in per campaign: a node without a custody agent
runs the legacy stack, so "off" is not attaching one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DtnConfig:
    """Per-node custody policy.

    The retry schedule is exponential with seed-deterministic jitter:
    attempt ``n`` waits ``min(retry_max, retry_base * retry_factor**n)``
    seconds plus a uniform draw in ``[0, retry_jitter * delay)`` from
    the node's own ``make_rng`` stream, so replays are bit-identical
    and co-located custodians do not retry in lockstep.
    """

    #: custody depth watermark — oldest-first eviction beyond this.
    capacity: int = 64
    #: custody age watermark (seconds) — older entries expire (never
    #: silently: every eviction emits ``custody.expire`` + a
    #: ``path.drop`` with a ``custody.*`` reason).
    max_age: float = 120.0
    #: bound on re-injection transmissions per custodied block.
    max_attempts: int = 16
    #: the schedule starts patient — a contact-triggered retry (a
    #: matching interest arriving) is what provides promptness, so the
    #: periodic retries can stay off the channel.
    retry_base: float = 4.0
    retry_factor: float = 1.7
    retry_max: float = 20.0
    retry_jitter: float = 0.5
    #: contact-triggered retries spread over this many seconds after a
    #: matching interest arrives (jittered, seed-deterministic).  The
    #: window must be wide enough that a full store re-injecting does
    #: not collide with itself — one block every ~250 ms, not all at
    #: once.
    contact_delay: float = 6.0
    #: a matching interest only counts as a *contact* when interests had
    #: stopped arriving for this long (or it is the first one ever seen
    #: for the object).  Sinks refresh interests continuously, so on a
    #: connected path the stream never gaps and custody stays silent;
    #: a gap means the sink side was unreachable and this refresh is
    #: the heal.  Must exceed the sink's refresh interval with margin.
    contact_gap: float = 25.0
    #: a node that goes dark only beacons after demand has been absent
    #: this long.  Losing a couple of interest refreshes to collisions
    #: momentarily darkens a *connected* node, and beaconing into that
    #: congestion (every neighbor accepting a handoff copy, each copy
    #: later beaconing in turn) amplifies exactly the traffic that
    #: caused it.  A node that was never routable — a disconnected
    #: source, a mule in transit — has no recent-demand timestamp and
    #: beacons immediately.
    beacon_grace: float = 25.0
    #: routed re-injection transmissions granted per contact (or per
    #: carrier handoff / dark-to-routable transition).  When the budget
    #: is spent the entry holds passively — the live transfer layer owns
    #: recovery on a connected path, and custody blind-firing routed
    #: floods was measured to congest the channel enough to delay the
    #: very transfer it was insuring.
    routed_burst: int = 3
    #: energy awareness: refuse *new* custody once the node has spent
    #: this many joules (None = never refuse on energy grounds).
    energy_budget: Optional[float] = None
