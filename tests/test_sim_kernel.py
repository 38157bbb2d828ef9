"""Unit tests for the discrete-event kernel."""

import gc

import pytest

from repro.sim import Simulator, SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_in_schedule_order():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(5.0, fired.append, label)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_horizon_is_inclusive_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "at-horizon")
    sim.schedule(10.5, fired.append, "beyond")
    sim.run(until=10.0)
    assert fired == ["at-horizon"]
    assert sim.now == 10.0
    sim.run(until=11.0)
    assert fired == ["at-horizon", "beyond"]


def test_run_until_advances_clock_when_queue_empty():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.schedule(2.0, fired.append, "y")
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_schedule_from_within_event():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_zero_delay_allowed_negative_rejected():
    sim = Simulator()
    sim.schedule(0.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(7.0, fired.append, "abs")
    sim.run()
    assert fired == ["abs"]
    assert sim.now == 7.0


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_nan_time_rejected():
    """NaN fails every comparison, so ``delay < 0`` let it into the heap,
    where it broke the order of every event behind it."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), print)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), print)
    assert sim.pending == 0


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, "never")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 2.0


def test_max_events_limit():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4


def test_max_events_leaves_the_clock_at_the_last_event():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0, 4.0, 5.0):
        sim.schedule_at(t, fired.append, t)
    sim.run(until=10.0, max_events=2)
    assert sim.now == 2.0
    assert sim.pending == 3
    sim.run(until=10.0)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 10.0


def test_max_events_on_the_last_event_still_settles_the_clock():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(12.0, lambda: None)
    sim.run(until=10.0, max_events=1)
    assert sim.now == 10.0


def test_pending_counts_uncancelled():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    e1.cancel()
    assert sim.pending == 1


def test_peek_time_skips_cancelled():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    assert sim.peek_time() == 2.0


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_no_profiler_by_default():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.profiler is None


def test_enable_profiler_is_idempotent():
    sim = Simulator()
    profiler = sim.enable_profiler()
    assert sim.enable_profiler() is profiler
    assert sim.profiler is profiler


def test_profiler_counts_events_and_sites():
    sim = Simulator()
    profiler = sim.enable_profiler()

    def noop():
        pass

    sim.schedule(1.0, noop)
    sim.schedule(2.0, noop)
    sim.schedule(3.0, lambda: None, name="named.site")
    sim.run()
    assert profiler.events == 3
    # Unnamed events are keyed by the callback's qualified name;
    # named events by their explicit name.
    sites = set(profiler.sites)
    assert "named.site" in sites
    assert any("noop" in site for site in sites)
    noop_site = next(s for s in sites if "noop" in s)
    assert profiler.sites[noop_site][0] == 2


def test_profiler_tracks_max_queue_depth():
    sim = Simulator()
    profiler = sim.enable_profiler()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert profiler.max_queue_depth == 5


def test_profiler_snapshot_shape():
    sim = Simulator()
    profiler = sim.enable_profiler()
    sim.schedule(1.0, lambda: None, name="a")
    sim.run()
    snap = profiler.snapshot()
    assert snap["events"] == 1
    assert snap["max_queue_depth"] >= 1
    assert snap["busy_seconds"] >= 0.0
    assert snap["events_per_second"] >= 0.0
    (site,) = snap["sites"]
    assert site["site"] == "a"
    assert site["count"] == 1
    assert site["seconds"] >= 0.0
    assert site["mean_us"] >= 0.0


def test_pending_is_constant_time_accounting():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending == 10
    for event in events[:4]:
        event.cancel()
    assert sim.pending == 6


def test_mass_cancellation_triggers_compaction():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
    for event in events[:400]:
        event.cancel()
    assert sim.compactions >= 1
    # Compaction physically bounds the garbage: cancelled events left in
    # the heap never exceed max(floor, live entries).
    assert sim.pending == 100
    garbage = len(sim._heap) - sim.pending
    assert garbage <= max(Simulator.COMPACT_MIN_GARBAGE, sim.pending)
    fired = []
    sim.schedule(1000.0, fired.append, "tail")
    sim.run()
    assert sim.events_processed == 101
    assert fired == ["tail"]


def test_compaction_preserves_event_order():
    sim = Simulator()
    fired = []
    keep = []
    for i in range(300):
        event = sim.schedule(float(i + 1), fired.append, i)
        if i % 3 != 0:
            keep.append(i)
        else:
            event.cancel()
    sim.run()
    assert fired == keep


def test_cancel_twice_counts_once():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    e1.cancel()
    assert sim.pending == 1


def test_cancel_after_fire_does_not_skew_pending():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.step()
    event.cancel()  # already fired; must not count as queued garbage
    assert sim.pending == 1
    assert sim.step()
    assert not sim.step()


def test_cancel_from_within_callback():
    sim = Simulator()
    fired = []
    victim = sim.schedule(2.0, fired.append, "victim")
    sim.schedule(1.0, victim.cancel)
    sim.schedule(3.0, fired.append, "survivor")
    sim.run()
    assert fired == ["survivor"]


def test_run_until_leaves_future_events_queued():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.pending == 1
    sim.run()
    assert fired == ["a", "b"]


def test_profiler_sites_sorted_by_time_spent():
    import time as _time

    sim = Simulator()
    profiler = sim.enable_profiler()
    sim.schedule(1.0, lambda: None, name="cheap")
    sim.schedule(2.0, lambda: _time.sleep(0.005), name="dear")
    sim.run()
    sites = [entry["site"] for entry in profiler.snapshot()["sites"]]
    assert sites == ["dear", "cheap"]


# The cyclic collector is paused inside the run loops and restored
# after them, whatever the caller had and however the loop ends.


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_the_collector_is_off_inside_an_event(collector):
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    sim.schedule(2.0, lambda: seen.append(gc.isenabled()))
    sim.run_window(1.5)
    sim.run()
    assert seen == [False, False]


def test_run_restores_the_collector(collector):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=5.0)
    assert gc.isenabled() is collector


def test_run_window_restores_the_collector(collector):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.run_window(5.0) == 1
    assert gc.isenabled() is collector


def test_a_raising_callback_restores_the_collector(collector):
    def boom():
        raise ValueError("boom")

    for loop in ("run", "run_window"):
        sim = Simulator()
        sim.schedule(1.0, boom)
        with pytest.raises(ValueError):
            getattr(sim, loop)(5.0)
        assert gc.isenabled() is collector


def test_stop_restores_the_collector(collector):
    sim = Simulator()
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    assert gc.isenabled() is collector


def test_reentrant_run_raises_and_the_outer_run_restores(collector):
    sim = Simulator()
    raised = []

    def reenter():
        for loop in (sim.run, lambda: sim.run_window(9.0)):
            with pytest.raises(SimulationError):
                loop()
            raised.append(gc.isenabled())

    sim.schedule(1.0, reenter)
    sim.run()
    assert raised == [False, False]
    assert gc.isenabled() is collector
