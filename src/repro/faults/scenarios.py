"""The resilience grid, its builtin fault plans, and the fault harness.

What every faulted run shares lives here: the standard 4×3 grid (corner
sink, opposite-corner source, everything else a potential relay), the
six :func:`builtin_plan` faults over it, the compressed timer set, and
:class:`FaultHarness` — engine + invariant monitors + optional flight
recorder, armed in one order and finished into one outcome section.
The ``resilience`` preset of :mod:`repro.shard.scenario` puts them
together: one fault injected mid-run, invariants monitored throughout,
the repair report returned as a JSON-safe dict, bit-identical per
(plan, seed).

:func:`arm_time_sync` is the ``timesync`` preset's workload (no
publish/subscribe traffic): a single-hop square running RBS
(:mod:`repro.apps.timesync`) whose participant clocks live in the fault
engine, so the :func:`clock_skew_plan` action knocks one clock out
mid-run and the periodic sync rounds must pull it back — repair
measured in sync rounds instead of exploratory intervals.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.timesync import SyncCoordinator, SyncParticipant, TimeBeacon
from repro.core import DiffusionConfig
from repro.faults.engine import FaultEngine
from repro.faults.monitors import MonitorSuite
from repro.faults.plan import (
    ClockSkew,
    EnergyBrownout,
    FaultPlan,
    FragmentCorruption,
    LinkFlap,
    NodeCrash,
    Partition,
    PlanError,
)
from repro.sim.rng import make_rng
from repro.sim.trace import FlightRecorder
from repro.testbed import SensorNetwork

#: the standard resilience grid: 4 columns × 3 rows, 15 m spacing,
#: row-major ids — sink and source at opposite corners, everything else
#: a potential relay.
GRID_COLUMNS = 4
GRID_ROWS = 3
GRID_SPACING = 15.0
SINK = 0
#: a mid-grid relay on the sink–source diagonal.
RELAY = GRID_COLUMNS + 1

DATA_TYPE = "fault-demo"


def grid_halves(
    columns: int = GRID_COLUMNS, rows: int = GRID_ROWS
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """A row-major grid (default: the standard one) split down the
    middle: (left, right) node ids."""
    left = tuple(
        row * columns + col
        for row in range(rows)
        for col in range(columns // 2)
    )
    right = tuple(
        row * columns + col
        for row in range(rows)
        for col in range(columns // 2, columns)
    )
    return left, right


#: name -> plan factory over the standard grid.  Fault windows sit in
#: the middle of the default 160 s run, after paths have formed.
_BUILTIN_PLANS = {
    # Kill the diagonal relay, power-cycle it 30 s later (state wiped).
    "crash": lambda: FaultPlan(
        (NodeCrash(node=RELAY, at=40.0, recover_at=70.0, clear_state=True),)
    ),
    # Flap the sink's diagonal link three times.
    "link-flap": lambda: FaultPlan(
        (LinkFlap(a=SINK, b=RELAY, at=40.0, down=8.0, flaps=3, period=16.0),)
    ),
    # Split the grid down the middle for twice the gradient lifetime.
    "partition": lambda: FaultPlan(
        (Partition(groups=grid_halves(), at=40.0, heal_at=90.0),)
    ),
    # Step a relay's clock by two seconds (timesync scenarios use this).
    "clock-skew": lambda: FaultPlan(
        (ClockSkew(node=RELAY, at=40.0, offset=2.0),)
    ),
    # Half of the relay's inbound fragments die at the link layer.
    "corruption": lambda: FaultPlan(
        (FragmentCorruption(node=RELAY, at=40.0, duration=30.0, rate=0.5),)
    ),
    # The relay browns out to a 20 % duty cycle for 30 s.
    "brownout": lambda: FaultPlan(
        (EnergyBrownout(node=RELAY, at=40.0, duration=30.0, duty_cycle=0.2),)
    ),
}


def builtin_names() -> List[str]:
    return sorted(_BUILTIN_PLANS)


def builtin_plan(name: str) -> FaultPlan:
    """The named builtin plan over the standard grid."""
    factory = _BUILTIN_PLANS.get(name)
    if factory is None:
        raise PlanError(
            f"unknown builtin plan {name!r} (known: {', '.join(builtin_names())})"
        )
    return factory()


def compressed_config(exploratory_interval: float) -> DiffusionConfig:
    """Timer set compressed so soft state turns over inside short runs
    (the paper's 60 s/100 s timers scaled down together).

    Interest refresh (10 s) runs on the subscription, *not* on data
    liveness — that decoupling is what lets demand outlive a partition
    longer than any individual gradient entry.
    """
    return DiffusionConfig(
        interest_interval=10.0,
        interest_jitter=0.5,
        gradient_timeout=25.0,
        exploratory_interval=exploratory_interval,
        reinforced_timeout=20.0,
        reinforcement_jitter=0.3,
    )


class FaultHarness:
    """What every faulted run arms, in this order: the engine for
    ``plan`` (no plan: an empty one), the invariant monitors, and — with
    a ``flight_recorder`` path — a
    :class:`~repro.sim.trace.FlightRecorder` riding the trace bus, whose
    rings the monitors dump there on the first violation.
    ``monitor_max_entries`` is the gradient-bound threshold; a demo
    tightens it to provoke a violation on a healthy run."""

    def __init__(
        self,
        network: SensorNetwork,
        plan: Optional[FaultPlan] = None,
        monitors: bool = True,
        flight_recorder: Optional[str] = None,
        monitor_max_entries: int = 32,
    ) -> None:
        if flight_recorder is not None and not monitors:
            raise ValueError(
                "flight_recorder needs monitors: they trigger its dump"
            )
        self.engine = FaultEngine(
            network, plan if plan is not None else FaultPlan(())
        )
        self.monitors: Optional[MonitorSuite] = None
        if monitors:
            self.monitors = MonitorSuite(
                network,
                max_entries=monitor_max_entries,
                recorder=(
                    FlightRecorder(network.trace)
                    if flight_recorder is not None else None
                ),
                dump_path=flight_recorder,
            )

    def finish(self) -> dict:
        """Final probe, detach, and this run's fault section: the
        timeline, plus the monitors' verdict and the flight-recorder
        dump record where those are armed."""
        section: dict = {"timeline": self.engine.timeline}
        monitors = self.monitors
        if monitors is None:
            return section
        monitors.check()
        monitors.detach()
        section["violations"] = [v.describe() for v in monitors.violations]
        section["invariants_ok"] = monitors.ok
        recorder = monitors.recorder
        if recorder is not None:
            recorder.detach()
            if monitors.dumped is None:
                # Clean run: dump the tail anyway so the requested
                # postmortem file always exists.
                monitors.dumped = recorder.dump(
                    monitors.dump_path, reason="end-of-run"
                )
            section["flight_recorder"] = {
                "path": str(monitors.dump_path),
                "records": monitors.dumped,
                "records_seen": recorder.records_seen,
            }
        return section


#: the timesync square: the RBS beacon, the coordinator (also the
#: reference participant), and the clock the fault steps.
TIMESYNC_BEACON = 0
TIMESYNC_COORDINATOR = 1
TIMESYNC_PARTICIPANTS = (1, 2, 3)
TIMESYNC_SKEWED = 3
#: the step: ``SKEW`` seconds at ``SKEW_AT``, measured against the
#: reference clock every ``SYNC_INTERVAL``; repaired once the error is
#: back within ``SYNC_THRESHOLD``.
SKEW = 2.0
SKEW_AT = 40.0
SYNC_INTERVAL = 8.0
SYNC_THRESHOLD = 0.25


def clock_skew_plan(p: Dict[str, Any]) -> FaultPlan:
    """The timesync disruption: one participant's clock steps mid-run."""
    return FaultPlan((ClockSkew(node=TIMESYNC_SKEWED, at=SKEW_AT, offset=SKEW),))


def arm_time_sync(network, p, seed, harness) -> Callable[[], Dict[str, Any]]:
    """RBS under a clock-skew fault: periodic sync rounds must re-pull
    the stepped clock within the threshold; repair is measured in sync
    rounds.  The preset's 2x2 grid at 12 m is single-hop, so every node
    hears every beacon directly and observation differences are pure
    clock offset (no path-delay bias), which is RBS's operating
    assumption."""
    engine = harness.engine
    # Start the participant clocks deterministically off-true, so the
    # first sync rounds do real work before the fault ever lands.
    init = make_rng(seed, "faults:clock-init")
    for node in TIMESYNC_PARTICIPANTS:
        clock = engine.clock(node)
        clock.offset = init.uniform(-0.5, 0.5)
        SyncParticipant(network.api(node), clock)
    beacon = TimeBeacon(network.api(TIMESYNC_BEACON), interval=2.0)
    coordinator = SyncCoordinator(network.api(TIMESYNC_COORDINATOR))

    errors: List[List[float]] = []

    def sync_round() -> None:
        now = network.sim.now
        coordinator.apply_corrections(
            {n: engine.clock(n) for n in TIMESYNC_PARTICIPANTS},
            reference=TIMESYNC_COORDINATOR,
        )
        # Slide the estimation window: stale observations straddle any
        # step (correction or fault) and would bias the next estimate.
        coordinator.reset_window()
        errors.append([
            now,
            engine.clock(TIMESYNC_SKEWED).error_vs(
                engine.clock(TIMESYNC_COORDINATOR), now
            ),
        ])
        network.sim.schedule(SYNC_INTERVAL, sync_round, name="rbs.sync-round")

    network.sim.schedule(SYNC_INTERVAL, sync_round, name="rbs.sync-round")

    def outcome() -> Dict[str, Any]:
        beacon.stop()
        repaired_at: Optional[float] = None
        for t, error in errors:
            if t <= SKEW_AT:
                continue
            if error <= SYNC_THRESHOLD:
                repaired_at = t
                break
        return {
            "seed": seed,
            "skew": SKEW,
            "skew_at": SKEW_AT,
            "sync_interval": SYNC_INTERVAL,
            "threshold": SYNC_THRESHOLD,
            "errors": errors,
            "repaired_at": repaired_at,
            "repair_rounds": (
                (repaired_at - SKEW_AT) / SYNC_INTERVAL
                if repaired_at is not None
                else None
            ),
        }

    return outcome
