"""Tests for the custody layer: store policy, agent retry schedule,
and the custody-conservation invariant monitor."""

import pytest

from repro.core import DiffusionConfig
from repro.dtn import CustodyAgent, CustodyStore, DtnConfig
from repro.dtn import agent as dtn_agent
from repro.dtn.custody import CustodyEntry
from repro.faults import MonitorSuite
from repro.radio import Topology
from repro.sim import TraceBus
from repro.sim.rng import make_rng
from repro.testbed import SensorNetwork


def collecting_bus():
    bus = TraceBus()
    records = []
    for category in (
        "custody.accept", "custody.transfer", "custody.expire",
        "custody.refuse", "path.drop",
    ):
        bus.subscribe(category, records.append)
    return bus, records


def make_store(**config):
    bus, records = collecting_bus()
    store = CustodyStore(7, bus, DtnConfig(**config))
    return store, records


class TestCustodyStore:
    def test_accept_holds_and_duplicate_refused(self):
        store, records = make_store()
        entry = store.accept("obj", 3, 10, b"xyz", 1.0, trace="1.1")
        assert entry is not None and store.holds(("obj", 3))
        assert store.accept("obj", 3, 10, b"xyz", 2.0, trace="1.2") is None
        assert store.accepted == 1
        assert [r.category for r in records] == ["custody.accept"]

    def test_release_emits_transfer(self):
        store, records = make_store()
        store.accept("obj", 0, 4, b"a", 1.0, trace="1.1")
        released = store.release(("obj", 0), 5.0, to=9, delivered=True)
        assert released is not None and not store.holds(("obj", 0))
        assert store.transferred == 1
        transfer = [r for r in records if r.category == "custody.transfer"]
        assert len(transfer) == 1
        assert transfer[0].data["to"] == 9
        assert transfer[0].data["delivered"] is True

    def test_capacity_evicts_oldest_with_explicit_expiry(self):
        store, records = make_store(capacity=2)
        store.accept("obj", 0, 4, b"a", 1.0, trace="1.1")
        store.accept("obj", 1, 4, b"b", 2.0, trace="1.2")
        store.accept("obj", 2, 4, b"c", 3.0, trace="1.3")
        assert len(store) == 2
        assert not store.holds(("obj", 0))  # oldest promise evicted
        assert store.holds(("obj", 2))
        expire = [r for r in records if r.category == "custody.expire"]
        assert len(expire) == 1
        assert expire[0].data["reason"] == "capacity"
        # Terminal loss joins the per-layer drop attribution.
        drops = [r for r in records if r.category == "path.drop"]
        assert drops and drops[0].data["reason"] == "custody.expire-capacity"
        assert drops[0].data["layer"] == "custody"

    def test_age_sweep(self):
        store, records = make_store(max_age=10.0)
        store.accept("obj", 0, 4, b"a", 0.0, trace="1.1")
        store.accept("obj", 1, 4, b"b", 5.0, trace="1.2")
        stale = store.sweep(11.0)
        assert stale == [("obj", 0)]
        assert store.holds(("obj", 1))
        expire = [r for r in records if r.category == "custody.expire"]
        assert expire[0].data["reason"] == "age"

    def test_retry_exhaustion_expiry(self):
        store, records = make_store()
        store.accept("obj", 0, 4, b"a", 0.0, trace="1.1")
        store.expire_retries(("obj", 0), 9.0)
        expire = [r for r in records if r.category == "custody.expire"]
        assert expire[0].data["reason"] == "retries"
        assert store.expired == 1

    def test_energy_budget_refuses_new_custody(self):
        bus, records = collecting_bus()
        spent = {"j": 0.0}
        store = CustodyStore(
            7, bus, DtnConfig(energy_budget=1.0),
            energy_spent=lambda: spent["j"],
        )
        assert store.accept("obj", 0, 4, b"a", 0.0, trace="1.1") is not None
        spent["j"] = 2.0
        assert store.accept("obj", 1, 4, b"b", 1.0, trace="1.2") is None
        assert store.refused_energy == 1
        refusals = [r for r in records if r.category == "custody.refuse"]
        assert refusals and refusals[0].data["reason"] == "energy"
        # The promise already made is kept.
        assert store.holds(("obj", 0))

    def test_depth_high_water(self):
        store, _ = make_store()
        for i in range(5):
            store.accept("obj", i, 8, b"x", float(i), trace=f"1.{i}")
        store.release(("obj", 0), 6.0)
        assert store.depth_high_water == 5
        assert len(store) == 4


def small_network():
    topo = Topology()
    for i in range(3):
        topo.add_node(i, i * 12.0, 0.0)
    return SensorNetwork(
        topo, seed=3,
        config=DiffusionConfig(
            interest_interval=10.0, interest_jitter=0.5,
            gradient_timeout=25.0, exploratory_interval=8.0,
        ),
    )


class TestCustodyAgent:
    def test_retry_schedule_is_seed_deterministic(self):
        delays = []
        for _ in range(2):
            net = small_network()
            agent = CustodyAgent(
                net.node(1), rng=make_rng(3, "dtn:agent:1")
            )
            delays.append([agent._retry_delay(n) for n in range(6)])
            agent.detach()
        assert delays[0] == delays[1]
        # Exponential with a ceiling: non-decreasing base terms.
        bases = [
            min(
                dtn_agent.RETRY_MAX,
                dtn_agent.RETRY_BASE * dtn_agent.RETRY_FACTOR ** n,
            )
            for n in range(6)
        ]
        for delay, base in zip(delays[0], bases):
            assert base <= delay <= base * (1 + dtn_agent.RETRY_JITTER)

    def test_detach_cancels_timers_and_removes_filter(self):
        net = small_network()
        agent = CustodyAgent(net.node(1), rng=make_rng(3, "dtn:agent:1"))
        agent.store.accept("obj", 0, 4, b"a", 0.0, trace="1.1")
        agent._schedule_retry(("obj", 0), attempts=0)
        assert agent._retry
        agent.detach()
        assert not agent._retry
        assert agent.handle is None


class TestCustodyConservationMonitor:
    def emit(self, net, category, node=1, obj="obj", index=0, **extra):
        net.trace.emit(
            net.sim.now, category, node=node, object=obj, index=index,
            trace="1.1", **extra,
        )

    def test_accept_then_transfer_is_clean(self):
        net = small_network()
        suite = MonitorSuite(net)
        self.emit(net, "custody.accept")
        self.emit(net, "custody.transfer")
        assert suite.ok
        suite.detach()

    def test_release_without_accept_is_a_violation(self):
        net = small_network()
        suite = MonitorSuite(net)
        self.emit(net, "custody.expire")
        assert not suite.ok
        violation = suite.violations[0]
        assert violation.invariant == "custody-conservation"
        assert violation.detail["detail_kind"] == "release-without-accept"
        suite.detach()

    def test_double_accept_is_a_violation(self):
        net = small_network()
        suite = MonitorSuite(net)
        self.emit(net, "custody.accept")
        self.emit(net, "custody.accept")
        assert not suite.ok
        assert suite.violations[0].detail["event"] == "double-accept"
        suite.detach()

    def test_ghost_entry_caught_by_probe(self):
        net = small_network()
        suite = MonitorSuite(net)
        agent = CustodyAgent(net.node(1), rng=make_rng(3, "dtn:agent:1"))
        suite.watch_custody(agent)
        # An entry that never went through accept(): no bus event.
        agent.store._entries[("obj", 0)] = CustodyEntry(
            object_id="obj", index=0, total=4, payload=b"a",
            accepted_at=0.0, trace="1.1",
        )
        suite.check()
        assert not suite.ok
        assert suite.violations[0].detail["detail_kind"] == "ghost-entry"
        suite.detach()

    def test_silent_drop_caught_by_probe(self):
        net = small_network()
        suite = MonitorSuite(net)
        agent = CustodyAgent(net.node(1), rng=make_rng(3, "dtn:agent:1"))
        suite.watch_custody(agent)
        agent.store.accept("obj", 0, 4, b"a", 0.0, trace="1.1")
        del agent.store._entries[("obj", 0)]  # vanish without an event
        suite.check()
        assert not suite.ok
        assert suite.violations[0].detail["detail_kind"] == "silent-drop"
        suite.detach()

    def test_store_lifecycle_through_real_bus_is_clean(self):
        net = small_network()
        suite = MonitorSuite(net)
        agent = CustodyAgent(net.node(1), rng=make_rng(3, "dtn:agent:1"))
        suite.watch_custody(agent)
        agent.store.accept("obj", 0, 4, b"a", 0.0, trace="1.1")
        agent.store.accept("obj", 1, 4, b"b", 0.0, trace="1.2")
        suite.check()
        agent.store.release(("obj", 0), 1.0, to=2)
        agent.store.expire_retries(("obj", 1), 2.0)
        suite.check()
        assert suite.ok
        suite.detach()
