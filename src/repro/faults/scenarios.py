"""Canned resilience scenarios: one network, one fault, measured repair.

:func:`resilience_run` is the workhorse behind the scenario tests, the
builtin resilience campaign, and the ``faults`` CLI: a 4×3 grid with a
corner sink and the opposite-corner source streaming data, one
:func:`builtin_plan` fault injected mid-run, invariants monitored
throughout, and the repair report returned as a JSON-safe dict.  Runs
are bit-identical per (plan, seed): the fault timeline and every repair
metric replay exactly.

:func:`clock_skew_run` is the timesync variant: a single-hop square
running RBS (:mod:`repro.apps.timesync`) whose participant clocks live
in the fault engine, so a :class:`~repro.faults.plan.ClockSkew` action
knocks one clock out mid-run and the periodic sync rounds must pull it
back — repair measured in sync rounds instead of exploratory intervals.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

import repro.core.messages as core_messages
from repro.apps.timesync import SyncCoordinator, SyncParticipant, TimeBeacon
from repro.core import DiffusionConfig
from repro.faults.engine import FaultEngine
from repro.faults.metrics import ResilienceProbe
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
from repro.radio import Topology
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
SOURCE = GRID_COLUMNS * GRID_ROWS - 1
#: a mid-grid relay on the sink–source diagonal.
RELAY = GRID_COLUMNS + 1

DATA_TYPE = "fault-demo"


def grid_halves() -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The standard grid split down the middle: (left, right) node ids."""
    left = tuple(
        row * GRID_COLUMNS + col
        for row in range(GRID_ROWS)
        for col in range(GRID_COLUMNS // 2)
    )
    right = tuple(
        row * GRID_COLUMNS + col
        for row in range(GRID_ROWS)
        for col in range(GRID_COLUMNS // 2, GRID_COLUMNS)
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


def watch(
    network: SensorNetwork,
    flight_recorder: Optional[str] = None,
    max_entries: int = 32,
) -> MonitorSuite:
    """Invariant monitors over ``network``; with a ``flight_recorder``
    path, a :class:`~repro.sim.trace.FlightRecorder` rides the trace bus
    and the monitors dump its rings there on the first violation."""
    recorder = (
        FlightRecorder(network.trace) if flight_recorder is not None else None
    )
    return MonitorSuite(
        network,
        max_entries=max_entries,
        recorder=recorder,
        dump_path=flight_recorder,
    )


def close_flight_recorder(monitors: MonitorSuite, path: str) -> dict:
    """Detach the recorder :func:`watch` armed; the run's dump record."""
    recorder = monitors.recorder
    recorder.detach()
    if monitors.dumped is None:
        # Clean run: dump the tail anyway so the requested postmortem
        # file always exists.
        monitors.dumped = recorder.dump(path, reason="end-of-run")
    return {
        "path": str(path),
        "records": monitors.dumped,
        "records_seen": recorder.records_seen,
    }


def resilience_run(
    fault: str = "crash",
    seed: int = 1,
    exploratory_interval: float = 8.0,
    duration: float = 160.0,
    plan: Optional[FaultPlan] = None,
    data_period: float = 1.0,
    flight_recorder: Optional[str] = None,
    monitor_max_entries: int = 32,
) -> dict:
    """One fault on the standard grid; returns the JSON-safe verdict.

    With ``flight_recorder`` set to a path, a
    :class:`~repro.sim.trace.FlightRecorder` rides the trace bus and the
    monitors dump its rings there on the first invariant violation (or,
    if the run stays clean, at the end — a postmortem of a healthy run
    is still a trace worth keeping).  ``monitor_max_entries`` is the
    gradient-bound threshold, exposed so demos/tests can tighten it to
    provoke a violation on an otherwise healthy run.
    """
    # msg ids draw from a process-global counter; restart it so paired
    # runs are bit-identical, not merely equivalent.
    core_messages._msg_counter = itertools.count(1)
    from repro.naming import AttributeVector
    from repro.naming.keys import Key

    network = SensorNetwork(
        Topology.grid(GRID_COLUMNS, GRID_ROWS, spacing=GRID_SPACING),
        seed=seed,
        config=compressed_config(exploratory_interval),
    )
    active_plan = plan if plan is not None else builtin_plan(fault)
    engine = FaultEngine(network, active_plan)
    monitors = watch(network, flight_recorder, monitor_max_entries)
    probe = ResilienceProbe(network, SINK, sources=[SOURCE])

    delivered: List[float] = []
    network.api(SINK).subscribe(
        AttributeVector.builder().eq(Key.TYPE, DATA_TYPE).build(),
        lambda attrs, msg: delivered.append(network.sim.now),
    )
    publication = network.api(SOURCE).publish(
        AttributeVector.builder().actual(Key.TYPE, DATA_TYPE).build()
    )
    sends = int((duration - 7.0) / data_period)
    for i in range(sends):
        network.sim.schedule(
            5.0 + i * data_period,
            network.api(SOURCE).send,
            publication,
            AttributeVector.builder().actual(Key.SEQUENCE, i).build(),
            name="faults.source-send",
        )

    network.run(until=duration)
    monitors.check()
    monitors.detach()
    probe.record_metrics()
    probe.detach()
    report = probe.report(engine.timeline, exploratory_interval, duration)
    result = {
        "fault": fault if plan is None else "custom",
        "seed": seed,
        "exploratory_interval": exploratory_interval,
        "duration": duration,
        "timeline": engine.timeline,
        "report": report,
        "fragments_corrupted": engine.fragments_corrupted,
        "violations": [v.describe() for v in monitors.violations],
        "invariants_ok": monitors.ok,
    }
    if flight_recorder is not None:
        result["flight_recorder"] = close_flight_recorder(
            monitors, flight_recorder
        )
    return result


def clock_skew_run(
    seed: int = 1,
    sync_interval: float = 8.0,
    duration: float = 120.0,
    skew: float = 2.0,
    skew_at: float = 40.0,
    threshold: float = 0.25,
) -> dict:
    """RBS under a clock-skew fault: one participant's clock steps by
    ``skew`` seconds mid-run; periodic sync rounds must re-pull it
    within the threshold.  Repair is measured in sync rounds."""
    core_messages._msg_counter = itertools.count(1)
    # A single-hop square: every node hears every beacon directly, so
    # observation differences are pure clock offset (no path-delay
    # bias), which is RBS's operating assumption.
    topology = Topology()
    topology.add_node(0, 0.0, 0.0)     # beacon
    topology.add_node(1, 12.0, 0.0)    # reference participant + coordinator
    topology.add_node(2, 0.0, 12.0)
    topology.add_node(3, 12.0, 12.0)   # the clock that gets skewed
    network = SensorNetwork(
        topology, seed=seed, config=compressed_config(10.0)
    )
    plan = FaultPlan((ClockSkew(node=3, at=skew_at, offset=skew),))
    engine = FaultEngine(network, plan)
    monitors = MonitorSuite(network)

    # Start the participant clocks deterministically off-true, so the
    # first sync rounds do real work before the fault ever lands.
    init = make_rng(seed, "faults:clock-init")
    participants = {}
    for node in (1, 2, 3):
        clock = engine.clock(node)
        clock.offset = init.uniform(-0.5, 0.5)
        participants[node] = SyncParticipant(network.api(node), clock)
    beacon = TimeBeacon(network.api(0), interval=2.0)
    coordinator = SyncCoordinator(network.api(1))

    errors: List[List[float]] = []

    def sync_round() -> None:
        now = network.sim.now
        coordinator.apply_corrections(
            {n: engine.clock(n) for n in (1, 2, 3)}, reference=1
        )
        # Slide the estimation window: stale observations straddle any
        # step (correction or fault) and would bias the next estimate.
        coordinator.reset_window()
        errors.append(
            [now, engine.clock(3).error_vs(engine.clock(1), now)]
        )
        network.sim.schedule(sync_interval, sync_round, name="rbs.sync-round")

    network.sim.schedule(sync_interval, sync_round, name="rbs.sync-round")
    network.run(until=duration)
    beacon.stop()
    monitors.check()
    monitors.detach()

    repaired_at: Optional[float] = None
    for t, error in errors:
        if t <= skew_at:
            continue
        if error <= threshold:
            repaired_at = t
            break
    return {
        "seed": seed,
        "skew": skew,
        "skew_at": skew_at,
        "sync_interval": sync_interval,
        "threshold": threshold,
        "errors": errors,
        "repaired_at": repaired_at,
        "repair_rounds": (
            (repaired_at - skew_at) / sync_interval
            if repaired_at is not None
            else None
        ),
        "timeline": engine.timeline,
        "violations": [v.describe() for v in monitors.violations],
        "invariants_ok": monitors.ok,
    }
