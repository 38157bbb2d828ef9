"""Discrete-event simulation kernel used by every networked substrate.

The paper's testbed ran on real PC/104 hardware; we substitute a
deterministic event-driven simulator (see DESIGN.md section 2).  The kernel
is deliberately small: a priority queue of timestamped events, cancellable
timers, and a trace bus for experiment instrumentation.
"""

from repro.sim.kernel import Event, KernelProfiler, Simulator, SimulationError
from repro.sim.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    current_registry,
    use_registry,
)
from repro.sim.rng import SeedSequence, derive_seed, make_rng
from repro.sim.trace import (
    FlightRecorder,
    TraceBus,
    TraceRecord,
    trace_id_of,
)

__all__ = [
    "Event",
    "KernelProfiler",
    "Simulator",
    "SimulationError",
    "SeedSequence",
    "derive_seed",
    "make_rng",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "current_registry",
    "use_registry",
    "FlightRecorder",
    "TraceBus",
    "TraceRecord",
    "trace_id_of",
]
