"""Kernel APIs added for the sharded kernel: window stepping, the
deterministic (time, priority, seq) event order, the schedule observer,
queue introspection, and queue-health metrics.

``test_identical_streams_produce_identical_event_sequences`` is the
regression the sharded equivalence proof rests on: two identically
seeded simulators must dispatch byte-identical event sequences, which
is only true if tie-breaking is fully explicit.
"""

import random

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.metrics import use_registry


# ---------------------------------------------------------------------------
# Deterministic ordering: (time, priority, seq)


def test_priority_orders_same_instant_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "default")        # priority 0, seq 0
    sim.schedule_at(1.0, fired.append, "late", priority=5)
    sim.schedule_at(1.0, fired.append, "early", priority=-5)
    sim.run()
    assert fired == ["early", "default", "late"]


def test_seq_breaks_ties_within_a_priority():
    sim = Simulator()
    fired = []
    for label in ("a", "b", "c"):
        sim.schedule_at(2.0, fired.append, label, priority=-1)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_time_dominates_priority():
    """An earlier event runs first no matter how low-priority it is."""
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "early-low-priority", priority=99)
    sim.schedule_at(2.0, fired.append, "late-high-priority", priority=-99)
    sim.run()
    assert fired == ["early-low-priority", "late-high-priority"]


def test_identical_streams_produce_identical_event_sequences():
    """Two identically seeded runs dispatch the same (time, name)
    sequence — the determinism the shard equivalence proof requires."""

    def run_once(seed):
        sim = Simulator()
        rng = random.Random(seed)
        dispatched = []

        def tick(label):
            dispatched.append((sim.now, label))
            if len(dispatched) < 200:
                # Deliberately collide timestamps and priorities.
                delay = rng.choice([0.0, 0.5, 0.5, 1.0])
                sim.schedule_at(
                    sim.now + delay, tick, f"{label}/{len(dispatched)}",
                    priority=rng.choice([-1, 0, 1]),
                )

        for i in range(5):
            sim.schedule(0.5, tick, f"root{i}")
        sim.run()
        return dispatched

    assert run_once(42) == run_once(42)


# ---------------------------------------------------------------------------
# run_window


def test_run_window_is_exclusive_by_default():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in")
    sim.schedule(2.0, fired.append, "at-horizon")
    processed = sim.run_window(2.0)
    assert processed == 1
    assert fired == ["in"]
    assert sim.pending == 1


def test_run_window_inclusive_executes_horizon_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in")
    sim.schedule(2.0, fired.append, "at-horizon")
    processed = sim.run_window(2.0, inclusive=True)
    assert processed == 2
    assert fired == ["in", "at-horizon"]


def test_run_window_leaves_clock_at_last_event():
    """The clock must not jump to the horizon: ghosts from other shards
    may still be injected anywhere inside the window."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_window(5.0)
    assert sim.now == 1.0
    # Injecting behind the horizon but after `now` must be legal.
    sim.schedule_at(3.0, lambda: None)


def test_run_window_advance_clock_settles_on_horizon():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_window(5.0, advance_clock=True)
    assert sim.now == 5.0


def test_run_window_successive_windows_partition_the_timeline():
    sim = Simulator()
    fired = []
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        sim.schedule(t, fired.append, t)
    assert sim.run_window(1.0) == 1            # 0.5 only
    assert sim.run_window(2.0, inclusive=True) == 3  # 1.0, 1.5, 2.0
    assert sim.run_window(9.0) == 1            # 2.5
    assert fired == [0.5, 1.0, 1.5, 2.0, 2.5]


def test_run_window_is_not_reentrant():
    sim = Simulator()

    def reenter():
        sim.run_window(2.0)

    sim.schedule(1.0, reenter)
    with pytest.raises(SimulationError):
        sim.run_window(5.0)


def test_stop_interrupts_a_window():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run_window(5.0, advance_clock=True)
    assert fired == ["a"]
    # A stopped window must not settle the clock on the horizon: the
    # stop exists so a shard can end the window early and re-plan.
    assert sim.now == 1.0
    assert sim.pending == 1


# ---------------------------------------------------------------------------
# Schedule observer and queue introspection


def test_schedule_observer_sees_every_event():
    sim = Simulator()
    seen = []
    sim.set_schedule_observer(seen.append)
    e1 = sim.schedule(1.0, lambda: None, name="one")
    e2 = sim.schedule_at(2.0, lambda: None, name="two")
    assert seen == [e1, e2]


def test_schedule_observer_sees_events_scheduled_during_dispatch():
    sim = Simulator()
    names = []
    sim.set_schedule_observer(lambda e: names.append(e.name))
    sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: None, name="child"),
                 name="parent")
    sim.run()
    assert names == ["parent", "child"]


def test_schedule_observer_removed_with_none():
    sim = Simulator()
    seen = []
    sim.set_schedule_observer(seen.append)
    sim.schedule(1.0, lambda: None)
    sim.set_schedule_observer(None)
    sim.schedule(2.0, lambda: None)
    assert len(seen) == 1


def test_pending_events_skips_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None, name="keep")
    drop = sim.schedule(2.0, lambda: None, name="drop")
    drop.cancel()
    assert list(sim.pending_events()) == [keep]
    assert sim.pending == 1


def test_dispatch_clears_event_owner():
    """After dispatch the event's owner is cleared — the marker the
    shard runtime uses to prune executed events from its bookkeeping."""
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    assert event._owner is sim
    sim.run()
    assert event._owner is None


# ---------------------------------------------------------------------------
# Queue-health metrics in the registry


def test_cancel_and_compaction_metrics_reach_the_registry():
    with use_registry() as registry:
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(200)]
        for event in events[:150]:
            event.cancel()
        snapshot = registry.snapshot()
    assert snapshot["counters"]["kernel.cancelled_events"] == 150
    # 150 cancelled out of 200 crosses both compaction thresholds.
    assert snapshot["counters"]["kernel.compactions"] >= 1
    assert snapshot["counters"]["kernel.compactions"] == sim.compactions


def test_run_settles_processed_and_pending_gauges():
    with use_registry() as registry:
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        sim.run(until=2.0)
        snapshot = registry.snapshot()
    assert snapshot["gauges"]["kernel.events_processed"]["value"] == 2
    assert snapshot["gauges"]["kernel.pending_events"]["value"] == 1


def test_run_window_settles_gauges_too():
    with use_registry() as registry:
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run_window(2.5)
        snapshot = registry.snapshot()
    assert snapshot["gauges"]["kernel.events_processed"]["value"] == 2
    assert snapshot["gauges"]["kernel.pending_events"]["value"] == 1
