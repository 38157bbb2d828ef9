"""The builtin fault plans and the fault harness.

What every faulted run shares lives here: the six :func:`builtin_plan`
faults over the standard 4×3 grid (:data:`repro.shard.scenario.GRID_COLUMNS`
and its neighbours: corner sink, opposite-corner source, everything
else a potential relay) and :class:`FaultHarness` — engine + invariant
monitors + optional flight recorder, armed in one order and finished
into one outcome section.  The ``resilience`` preset of
:mod:`repro.shard.scenario` puts them together: one fault injected
mid-run, invariants monitored throughout, the repair report returned as
a JSON-safe dict, bit-identical per (plan, seed).

The registry imports this module only inside the builds that arm a
plan, monitors or a flight recorder, so a run that names none of them
never loads :mod:`repro.faults`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
from repro.shard.scenario import GRID_COLUMNS, GRID_ROWS
from repro.sim.trace import FlightRecorder
from repro.testbed import SensorNetwork

SINK = 0
#: a mid-grid relay on the sink–source diagonal.
RELAY = GRID_COLUMNS + 1


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
