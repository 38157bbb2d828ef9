"""The kernel event budget of one ``fig8`` run, pinned.

A fragment's end of airtime runs in the event that finalizes its
receptions, and reassembly timeouts share one FIFO with at most one
pending ``frag.expire``: so a ``fig8`` run cancels no event at all.  It
executed 445 where one ``modem.txdone`` per fragment and one
``frag.expire`` per multi-fragment message made it 579 (100 of those
timers cancelled); outcomes did not move, and
``tests/test_trace_guard.py`` pins the same run's trace records.  Under
the order-free loss draw the same run executes 812 (the run's event
count is bimodal over seeds 1-20 on every loss draw tried: mostly
about 420-460 or 750-890).
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
    assert net.sim.events_processed == 812
