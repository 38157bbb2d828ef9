"""The kernel event budget of one ``fig8`` run, pinned.

A fragment's end of airtime runs in the event that finalizes its
receptions, and reassembly timeouts share one FIFO with at most one
pending ``frag.expire``: so a ``fig8`` run cancels no event at all, and
executes 445 where one ``modem.txdone`` per fragment and one
``frag.expire`` per multi-fragment message made it 579 (100 of those
timers cancelled).  Outcomes did not move: ``tests/test_trace_guard.py``
pins the same run's trace records.
"""

from repro.shard import ShardPlan, build_whole
from repro.sim import use_registry


def test_fig8_event_budget():
    plan = ShardPlan.named("fig8", {}, seed=1, duration=60.0)
    with use_registry() as registry:
        net = build_whole(plan)
        net.sim.run(until=plan.duration)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["kernel.cancelled_events"] == 0
    assert snapshot["gauges"]["kernel.events_processed"]["value"] == 445
