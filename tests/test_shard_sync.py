"""Unit tests for the conservative synchronization machinery.

The equivalence suite (tests/test_shard_equivalence.py) proves the
end-to-end property; these tests pin down the pieces it rests on:
horizon computation, the promise's lower-bound terms, ghost admission
filtering, the round itself, order-independent hashed loss draws, outcome
merging, and a real :class:`~repro.shard.process.WorkerCrew` round trip through
the worker entry point.
"""

import math

import pytest

from repro.shard.process import WorkerCrew
from repro.radio import Channel, DistancePropagation, Modem, Topology
from repro.radio.channel import Transmission
from repro.shard import (
    ExportedTx,
    ShardPlan,
    ShardRuntime,
    merge_outcomes,
    next_horizon,
    run_oracle,
    run_sharded,
)
from repro.shard import worker
from repro.sim import Simulator
from repro.sim.rng import SeedSequence

FLOOD_PLAN = ShardPlan(
    scenario="flood", params={"columns": 8, "rows": 4},
    seed=11, duration=5.0, shards=2,
)
MOBILITY_PLAN = ShardPlan(
    scenario="mobility", params={"columns": 8, "rows": 4},
    seed=11, duration=8.0, shards=2,
)


def export(src=0, start=1.0, end=1.01):
    return ExportedTx(
        src=src, start=start, end=end, nbytes=27,
        payload=b"x", link_dst=None,
    )


# ---------------------------------------------------------------------------
# next_horizon


class TestNextHorizon:
    def test_duration_caps_the_horizon(self):
        assert next_horizon([], [], 0.002, 10.0)[0] == 10.0
        h, _term = next_horizon([(math.inf, "idle")], [], 0.002, 10.0)
        assert h == 10.0

    def test_earliest_peer_promise_wins(self):
        h, _term = next_horizon(
            [(3.0, "attempt"), (7.0, "attempt")], [], 0.002, 10.0
        )
        assert h == 3.0

    def test_export_term_bounds_unreacted_influence(self):
        # A transmission ending at t=2.0 can provoke a downstream
        # transmission anywhere from 2.0 + lookahead on; the horizon
        # must not pass that point even if every promise is later.
        h, _term = next_horizon(
            [(5.0, "attempt")], [export(end=2.0)], 0.002, 10.0
        )
        assert h == pytest.approx(2.002)

    def test_own_promise_listed_first_binds_with_its_term(self):
        """The caller lists its own promise first: when that is the
        earliest — alone or tied — the horizon is that promise and the
        window is attributed to that promise's term."""
        own, peer = (2.0, "lookahead"), (3.0, "attempt")
        assert next_horizon([own, peer], [], 0.002, 10.0) == own
        assert next_horizon(
            [(2.0, "move"), (2.0, "attempt")], [], 0.002, 10.0
        ) == (2.0, "move")

    def test_earlier_peer_promise_binds_with_the_peers_term(self):
        assert next_horizon(
            [(5.0, "lookahead"), (3.0, "attempt")], [], 0.002, 10.0
        ) == (3.0, "attempt")

    def test_export_bound_wins_when_earlier_than_every_promise(self):
        horizon, term = next_horizon(
            [(4.0, "attempt"), (5.0, "attempt")], [export(end=2.0)],
            0.002, 10.0,
        )
        assert (horizon, term) == (pytest.approx(2.002), "export")

    def test_idle_crew_runs_to_the_duration(self):
        idle = (math.inf, "idle")
        assert next_horizon([idle, idle], [], 0.002, 10.0) == (
            10.0, "duration"
        )


# ---------------------------------------------------------------------------
# ShardRuntime.promise


class TestPromise:
    def test_promise_lower_bounds_the_next_window(self):
        rt = ShardRuntime(FLOOD_PLAN, rank=0)
        p, _term = rt.promise()
        assert rt.sim.now <= p < math.inf
        # The promise is at least the earliest queued event: nothing
        # can transmit before it.
        assert p >= rt.sim.peek_time()

    def test_promise_reflects_frontier_attempts(self):
        rt = ShardRuntime(FLOOD_PLAN, rank=0)
        p, _term = rt.promise()
        earliest_attempt = min(
            (t for t, _seq, e in rt._attempts
             if not e.cancelled and e._owner is not None),
            default=math.inf,
        )
        peek = rt.sim.peek_time()
        expected = min(earliest_attempt, peek + rt.lookahead)
        assert p == expected

    def test_moves_are_promise_barriers(self):
        rt = ShardRuntime(MOBILITY_PLAN, rank=0)
        assert rt._move_events
        first_move = rt._move_events[0].time
        assert rt.promise()[0] <= first_move

    def test_empty_queue_promises_infinity(self):
        rt = ShardRuntime(FLOOD_PLAN, rank=0)
        for event in list(rt.sim.pending_events()):
            event.cancel()
        rt._move_events.clear()
        assert rt.promise()[0] == math.inf

    def test_lookahead_is_the_min_mac_gap(self):
        rt = ShardRuntime(FLOOD_PLAN, rank=0)
        gaps = [
            min(mac.interframe_gap, mac.min_backoff)
            for mac in rt.net.macs.values()
        ]
        assert rt.lookahead == min(gaps)
        assert rt.lookahead > 0


# ---------------------------------------------------------------------------
# Ghost admission


class TestInject:
    def test_audible_export_is_admitted_inaudible_skipped(self):
        rt = ShardRuntime(FLOOD_PLAN, rank=0)
        foreign = sorted(
            set(rt.net.topology.node_ids()) - set(rt.owned)
        )
        near = next(
            n for n in foreign if rt.boundary.listeners_across(n)
        )
        far = next(
            (n for n in foreign if not rt.boundary.listeners_across(n)),
            None,
        )
        t0 = rt.sim.now + 0.5
        rt.inject([export(src=near, start=t0, end=t0 + 0.01)])
        assert rt.stats.ghosts_admitted == 1
        ghosts = [
            e for e in rt.sim.pending_events()
            if e.name == "shard.ghost"
        ]
        assert len(ghosts) == 1
        assert ghosts[0].time == t0
        # Ghosts precede same-instant local traffic.
        assert ghosts[0].priority == -1
        if far is not None:
            rt.inject([export(src=far, start=t0, end=t0 + 0.01)])
            assert rt.stats.ghosts_admitted == 1
            assert rt.stats.ghosts_skipped == 1

    def test_inaudible_export_across_a_pending_move_is_admitted(self):
        """Nobody hears it when it keys up, but the move may bring a
        listener into its carrier range before it ends."""
        rt = ShardRuntime(MOBILITY_PLAN, rank=0)
        far = next(
            n for n in rt.net.topology.node_ids()
            if n not in rt.owned and not rt.boundary.listeners_across(n)
        )
        move = rt._move_events[0].time
        rt.inject([export(src=far, start=move - 0.02, end=move - 0.01)])
        assert (rt.stats.ghosts_admitted, rt.stats.ghosts_skipped) == (0, 1)
        rt.inject([export(src=far, start=move - 0.005, end=move + 0.005)])
        assert (rt.stats.ghosts_admitted, rt.stats.ghosts_skipped) == (1, 1)

    def test_export_behind_the_clock_is_admitted_as_carrier_only(self):
        """A fragment re-announced after a move is already on the air:
        it cannot be received here, only sensed until it ends."""
        rt = ShardRuntime(FLOOD_PLAN, rank=0)
        near = next(
            n for n in rt.net.topology.node_ids()
            if n not in rt.owned and rt.boundary.listeners_across(n)
        )
        listener = rt.boundary.listeners_across(near)[0]
        # A silent shard whose clock stands at t=0.1.
        for event in list(rt.sim.pending_events()):
            event.cancel()
        rt.sim.schedule_at(0.1, lambda: None)
        rt.sim.run_window(0.2)
        rt.inject([export(src=near, start=0.095, end=0.104)])
        assert rt.stats.ghosts_admitted == 1
        assert [e.name for e in rt.sim.pending_events()] == [
            "channel.ghost_end"
        ]
        assert rt.channel.carrier_busy(listener)
        rt.sim.run_window(0.2)
        assert not rt.channel.carrier_busy(listener)

    def test_single_shard_runtime_ignores_injection(self):
        plan = ShardPlan(
            scenario="flood", params={"columns": 8, "rows": 4},
            seed=11, duration=5.0, shards=1,
        )
        rt = ShardRuntime(plan, rank=0)
        rt.inject([export()])
        assert rt.stats.ghosts_admitted == 0


# ---------------------------------------------------------------------------
# The round: outgoing() / step() / done


class TestStep:
    def test_own_move_bounds_the_window(self):
        """A peer that has executed a move no longer promises it; the
        shard must still stop on its own copy of the event."""
        rt = ShardRuntime(MOBILITY_PLAN, rank=0)
        first_move = rt._move_events[0].time
        quiet_peer = {1: (math.inf, "idle", [], True)}
        while rt.sim.now < first_move:
            rt.outgoing()
            rt.step(quiet_peer)
        assert rt.sim.now == first_move
        assert rt.stats.windows_by_term["move"] >= 1

    def test_done_waits_for_every_peer(self):
        plan = ShardPlan(
            scenario="flood", params={"columns": 8, "rows": 4},
            seed=11, duration=0.2, shards=2,
        )
        rt = ShardRuntime(plan, rank=0)
        while not rt.outgoing()[3]:
            rt.step({1: (math.inf, "idle", [], False)})
        assert rt.outgoing()[:2] == (math.inf, "idle")
        rt.step({1: (math.inf, "idle", [], False)})
        assert not rt.done
        rt.outgoing()
        rt.step({1: (math.inf, "idle", [], True)})
        assert rt.done

    def test_unchanging_horizon_without_exports_is_a_stall(self, monkeypatch):
        """A peer that says the same thing round after round pins the
        horizon; past ``STALL_LIMIT`` such rounds the shard gives up
        instead of spinning."""
        monkeypatch.setattr(worker, "STALL_LIMIT", 5)
        rt = ShardRuntime(FLOOD_PLAN, rank=0)
        stuck_peer = {1: (0.5, "attempt", [], False)}
        with pytest.raises(RuntimeError, match="stalled at t=0.5"):
            for _ in range(1000):  # ~60 rounds of its own work come first
                rt.outgoing()
                rt.step(stuck_peer)
        assert rt.sim.now <= 0.5

    def test_finished_shards_exchanging_idle_never_stall(self, monkeypatch):
        monkeypatch.setattr(worker, "STALL_LIMIT", 5)
        plan = ShardPlan(
            scenario="flood", params={"columns": 8, "rows": 4},
            seed=11, duration=0.2, shards=2,
        )
        rt = ShardRuntime(plan, rank=0)
        finished_peer = {1: (math.inf, "idle", [], True)}
        while not rt.done:  # a running shard against a finished peer
            rt.outgoing()
            rt.step(finished_peer)
        for _ in range(20):  # and a finished one, for as long as it likes
            assert rt.outgoing() == (math.inf, "idle", [], True)
            rt.step(finished_peer)


# ---------------------------------------------------------------------------
# Shards run the same slice of time together


def rounds_of(plan):
    """Drive the round by hand (what the inline transport does) and
    return the per-round, per-shard executed-event counts and the
    runtimes."""
    runtimes = [ShardRuntime(plan, rank) for rank in range(plan.shards)]
    rounds = []
    while not all(rt.done for rt in runtimes):
        messages = [rt.outgoing() for rt in runtimes]
        before = [rt.stats.events for rt in runtimes]
        for rank, rt in enumerate(runtimes):
            rt.step({
                peer: message for peer, message in enumerate(messages)
                if peer != rank
            })
        rounds.append(
            [rt.stats.events - was for rt, was in zip(runtimes, before)]
        )
    return rounds, runtimes


OVERLAP_PLANS = {
    "regional": ShardPlan(
        "regional", {"columns": 16, "rows": 16, "duration": 4.5},
        seed=11, duration=4.5, shards=2,
    ),
    "flood": ShardPlan(
        "flood", {"columns": 16, "rows": 16}, seed=11, duration=3.0, shards=2,
    ),
}


@pytest.mark.parametrize("name", sorted(OVERLAP_PLANS))
class TestShardsRunTogether:
    def test_most_rounds_have_every_shard_executing(self, name):
        """With one horizon for the crew, shards execute the same slice
        of simulated time in the same round; when each shard's horizon
        left its own promise out they took turns (every shard active in
        0.2% of the rounds, half of all windows empty)."""
        rounds, runtimes = rounds_of(OVERLAP_PLANS[name])
        together = sum(1 for events in rounds if all(events))
        assert together >= len(rounds) / 2
        windows = sum(rt.stats.rounds for rt in runtimes)
        empty = sum(rt.stats.empty_windows for rt in runtimes)
        # A finished shard still exchanges, but runs no window.
        closing = len(rounds) * len(runtimes) - windows
        assert empty == sum(events.count(0) for events in rounds) - closing
        # 10-11% here (2.5% on the 32x32 ledger plan); taking turns: 50%.
        assert empty < windows / 5

    def test_four_shards_equal_the_oracle(self, name):
        two = OVERLAP_PLANS[name]
        plan = ShardPlan(two.scenario, two.params, two.seed, two.duration, 4)
        result = run_sharded(plan)
        assert result["outcome"] == run_oracle(plan)
        assert result["profile"]["empty_windows"] == sum(
            s["empty_windows"] for s in result["shards"]
        )


def test_a_shard_memoizes_only_links_in_reach():
    """After a 2-shard flood each shard holds exact PRRs for the
    directed pairs that can hear each other — among its own nodes and
    across the cut — not for every remote sender against every owned
    node that sensed the medium while its ghost was on the air."""
    _rounds, runtimes = rounds_of(OVERLAP_PLANS["flood"])
    for rt in runtimes:
        index = rt.channel.index
        foreign = set(rt.net.topology.node_ids()) - set(rt.owned)
        senders = [f for f in foreign if rt.boundary.listeners_across(f)]
        in_reach = sum(len(index.audible_from(n)) for n in rt.owned) + sum(
            len(rt.boundary.listeners_across(f)) for f in senders
        )
        assert rt.stats.ghosts_admitted > 0
        assert index.memo_misses <= in_reach < len(senders) * len(rt.owned)


# ---------------------------------------------------------------------------
# Hashed loss draws


class TestHashedLoss:
    """The channel-loss verdict is a pure function of (seed, src, dst,
    airtime start): each case drives the real verdict loop,
    ``Channel._finish_transmission``, over one receiver lane."""

    STARTS = [0.5 + 0.37 * i for i in range(200)]

    def make_channel(self, seed=5, order=(0, 1)):
        topo = Topology()
        topo.add_node(0, 0.0, 0.0)
        topo.add_node(1, 10.0, 0.0)
        sim = Simulator()
        channel = Channel(
            sim, DistancePropagation(topo, seed=seed),
            seeds=SeedSequence(seed),
        )
        for node_id in order:
            Modem(sim, channel, node_id)
        return channel

    @staticmethod
    def lost(channel, src, start, prr=0.5):
        """Whether the reception at ``1 - src`` of a fragment ``src``
        started at ``start`` is lost to the draw."""
        lane = channel._lane(src, 1 - src, prr)
        tx = Transmission(
            src=src, start=start, end=start + 0.01,
            payload=b"p", nbytes=27, link_dst=None, seqno=1,
        )
        lane[2][tx.seqno] = [prr, None, tx]
        before = channel.fragments_lost
        channel._finish_transmission((lane,), tx, None)
        return channel.fragments_lost > before

    def test_draw_depends_only_on_link_and_time(self):
        """Two channels, their modems attached in opposite orders, reach
        the same verdicts in opposite orders — the property that makes
        loss independent of which shard hosts the receiver and of event
        interleaving."""
        a = self.make_channel()
        b = self.make_channel(order=(1, 0))
        keys = [(i % 2, t) for i, t in enumerate(self.STARTS)]
        verdicts_a = [self.lost(a, src, t) for src, t in keys]
        verdicts_b = [self.lost(b, src, t) for src, t in reversed(keys)]
        assert verdicts_a == list(reversed(verdicts_b))
        assert 0 < sum(verdicts_a) < len(keys)

    def test_different_links_decorrelate(self):
        """At PRR 0.5 each direction loses about half of 200 fragments
        (five standard errors: 0.5 +- 0.18), and not the same ones."""
        ch = self.make_channel()
        forward = [self.lost(ch, 0, t) for t in self.STARTS]
        backward = [self.lost(ch, 1, t) for t in self.STARTS]
        assert forward != backward
        for verdicts in (forward, backward):
            assert 0.32 <= sum(verdicts) / len(verdicts) <= 0.68

    def test_different_seeds_decorrelate(self):
        a = self.make_channel(seed=5)
        b = self.make_channel(seed=6)
        assert [self.lost(a, 0, t) for t in self.STARTS] != [
            self.lost(b, 0, t) for t in self.STARTS
        ]

    def test_a_perfect_link_never_loses(self):
        ch = self.make_channel()
        assert not any(self.lost(ch, 0, t, prr=1.0) for t in self.STARTS)


# ---------------------------------------------------------------------------
# merge_outcomes


class TestMergeOutcomes:
    def test_numbers_sum_lists_sort_dicts_recurse(self):
        merged = merge_outcomes([
            {"sent": 3, "ratio": 0.5, "ok": False,
             "times": [2.0, 1.0], "sub": {"x": 1}},
            {"sent": 4, "ratio": 0.25, "ok": True,
             "times": [1.5], "sub": {"x": 2}},
        ])
        assert merged == {
            "sent": 7, "ratio": 0.75, "ok": True,
            "times": [1.0, 1.5, 2.0], "sub": {"x": 3},
        }

    def test_bools_merge_with_any_not_sum(self):
        merged = merge_outcomes([{"ok": True}, {"ok": True}])
        assert merged["ok"] is True

    def test_empty_input_merges_to_empty(self):
        assert merge_outcomes([]) == {}

    def test_unmergeable_type_is_an_error(self):
        with pytest.raises(TypeError, match="unmergeable"):
            merge_outcomes([{"k": "a"}, {"k": "b"}])


# ---------------------------------------------------------------------------
# WorkerCrew round trip


def _peer_sum_worker(rank, size, peers, base):
    """Exchange rank stamps all-to-all; every worker returns the same
    total, proving each pipe carried real data both ways."""
    total = base + rank
    for peer_rank, conn in peers.items():
        conn.send(rank)
    for peer_rank, conn in peers.items():
        total += conn.recv()
    return {"rank": rank, "total": total}


class TestWorkerCrew:
    def test_all_to_all_pipes_carry_data(self):
        with WorkerCrew(
            3, "tests.test_shard_sync:_peer_sum_worker"
        ) as crew:
            crew.start([100] * 3)
            results = crew.collect(timeout=60)
        assert [r["rank"] for r in results] == [0, 1, 2]
        assert [r["total"] for r in results] == [103, 103, 103]

    def test_shard_worker_main_runs_under_the_crew(self):
        """The real worker entry point over real pipes equals the
        oracle (the process-transport equivalence path, one more time
        at the unit level)."""
        oracle = run_oracle(FLOOD_PLAN)
        with WorkerCrew(
            FLOOD_PLAN.shards, "repro.shard.process:shard_worker_main"
        ) as crew:
            crew.start([FLOOD_PLAN] * FLOOD_PLAN.shards)
            results = crew.collect(timeout=120)
        merged = merge_outcomes([r["outcome"] for r in results])
        assert merged == oracle
