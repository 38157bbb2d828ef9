"""Tests for the online invariant monitors."""

import pytest

from repro import AttributeVector, Key
from repro.core import DiffusionConfig
from repro.faults import InvariantViolationError, MonitorSuite
from repro.radio import Topology
from repro.testbed import SensorNetwork


def small_network(**config_overrides):
    base = dict(
        interest_interval=10.0,
        interest_jitter=0.5,
        gradient_timeout=25.0,
        exploratory_interval=8.0,
    )
    base.update(config_overrides)
    topo = Topology()
    for i in range(3):
        topo.add_node(i, i * 12.0, 0.0)
    return SensorNetwork(topo, seed=3, config=DiffusionConfig(**base))


def tx(net, node, trace, hops, msg_type="DATA"):
    net.trace.emit(
        net.sim.now, "diffusion.tx",
        node=node, trace=trace, hops=hops, msg_type=msg_type, next_hop=None,
        nbytes=40,
    )


class TestForwardingLoopMonitor:
    def test_same_trace_at_two_hop_counts_is_a_loop(self):
        net = small_network()
        suite = MonitorSuite(net)
        tx(net, 1, "9.1", hops=2)
        tx(net, 1, "9.1", hops=5)  # came back around
        assert not suite.ok
        assert suite.violations[0].invariant == "no-forwarding-loop"
        assert suite.violations[0].trace == "9.1"
        suite.detach()

    def test_fanout_at_same_hop_count_is_not_a_loop(self):
        net = small_network()
        suite = MonitorSuite(net)
        tx(net, 1, "9.1", hops=2)
        tx(net, 1, "9.1", hops=2)  # exploratory fan-out, legitimate
        tx(net, 2, "9.1", hops=3)  # next hop, different node
        assert suite.ok
        suite.detach()

    def test_interest_transmissions_ignored(self):
        net = small_network()
        suite = MonitorSuite(net)
        tx(net, 1, "9.1", hops=1, msg_type="INTEREST")
        tx(net, 1, "9.1", hops=4, msg_type="INTEREST")
        assert suite.ok  # interest flooding legitimately re-sends
        suite.detach()

    def test_hop_count_ceiling(self):
        net = small_network()
        suite = MonitorSuite(net, max_hops=4)
        tx(net, 1, "9.1", hops=9)
        assert not suite.ok
        assert suite.violations[0].detail["max_hops"] == 4
        suite.detach()


class TestStateMonitors:
    def test_reinforcement_uniqueness_catches_duplicates(self):
        net = small_network()
        suite = MonitorSuite(net)
        entry = net.node(1).gradients.entry_for(
            AttributeVector.builder().eq(Key.TYPE, "t").build()
        )
        entry.sink_preferred[2] = [0, 0]  # duplicate next hop
        suite.check()
        assert not suite.ok
        assert suite.violations[0].invariant == "reinforcement-uniqueness"
        suite.detach()

    def test_reinforcement_uniqueness_respects_multipath_degree(self):
        net = small_network(multipath_degree=2)
        suite = MonitorSuite(net)
        entry = net.node(1).gradients.entry_for(
            AttributeVector.builder().eq(Key.TYPE, "t").build()
        )
        entry.sink_preferred[2] = [0, 2]  # two distinct: allowed at degree 2
        suite.check()
        assert suite.ok
        entry.sink_preferred[2] = [0, 2, 1]  # three: over budget
        suite.check()
        assert not suite.ok
        suite.detach()

    def test_gradient_table_bound(self):
        net = small_network()
        suite = MonitorSuite(net, max_entries=1)
        table = net.node(1).gradients
        table.entry_for(AttributeVector.builder().eq(Key.TYPE, "a").build())
        table.entry_for(AttributeVector.builder().eq(Key.TYPE, "b").build())
        suite.check()
        assert not suite.ok
        assert suite.violations[0].invariant == "gradient-bound"
        suite.detach()

    def test_periodic_probe_runs_without_traffic(self):
        net = small_network()
        suite = MonitorSuite(net, probe_interval=2.0)
        net.run(until=10.0)
        assert suite.ok  # probes ran and found a healthy network
        suite.detach()


class TestRebootCoherence:
    def test_clean_reboot_passes(self):
        net = small_network()
        suite = MonitorSuite(net)
        net.api(0).subscribe(
            AttributeVector.builder().eq(Key.TYPE, "t").build(),
            lambda attrs, msg: None,
        )
        net.run(until=15.0)
        net.fail_node(0)
        net.resurrect_node(0)  # clear_state default: a true reboot
        assert suite.ok
        suite.detach()

    def test_dirty_reboot_flagged(self):
        net = small_network()
        suite = MonitorSuite(net)
        # A "reboot" announced while the gradient table still has state
        # is incoherent — the monitor must catch it.
        net.node(1).gradients.entry_for(
            AttributeVector.builder().eq(Key.TYPE, "t").build()
        )
        net.trace.emit(net.sim.now, "node.reboot", node=1)
        assert not suite.ok
        assert suite.violations[0].invariant == "reboot-coherence"
        suite.detach()


class TestSuiteLifecycle:
    def test_assert_ok_raises_with_description(self):
        net = small_network()
        suite = MonitorSuite(net)
        tx(net, 1, "9.1", hops=2)
        tx(net, 1, "9.1", hops=5)
        with pytest.raises(InvariantViolationError, match="no-forwarding-loop"):
            suite.assert_ok()
        suite.detach()

    def test_detach_stops_listening(self):
        net = small_network()
        suite = MonitorSuite(net)
        suite.detach()
        tx(net, 1, "9.1", hops=2)
        tx(net, 1, "9.1", hops=5)
        assert suite.ok  # detached: the loop went unobserved

    def test_violations_count_on_metrics(self):
        from repro.sim.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            net = small_network()
            suite = MonitorSuite(net)
            tx(net, 1, "9.1", hops=2)
            tx(net, 1, "9.1", hops=5)
            suite.detach()
        assert registry.snapshot()["counters"]["faults.violations"] == 1


class TestFlightRecorderIntegration:
    def test_first_violation_dumps_causal_leadup(self, tmp_path):
        """The postmortem contract: when an invariant breaks, the dump
        holds the trace events that causally preceded it — at least 64
        on a run with real traffic — and it is written exactly once."""
        from repro.analysis.tracelog import load_trace
        from repro.shard import ShardPlan, run_oracle

        path = tmp_path / "postmortem.jsonl"
        result = run_oracle(ShardPlan.named(
            "resilience", {"flight_recorder": str(path),
                           "monitor_max_entries": 0}, 3, duration=40.0,
        ))
        assert not result["invariants_ok"]
        info = result["flight_recorder"]
        assert info["path"] == str(path)
        assert info["records"] >= 64
        records = load_trace(path)
        header, events = records[0], records[1:]
        assert header.category == "flight.header"
        assert header.data["reason"] == "invariant-violation"
        assert "gradient-bound" in header.data["violation"]
        assert len(events) == info["records"]
        # Every retained event precedes (or coincides with) the breach:
        # the dump happens synchronously inside the violation handler.
        violation_time = 5.0  # first probe
        assert all(r.time <= violation_time for r in events)

    def test_clean_run_dumps_at_end(self, tmp_path):
        from repro.analysis.tracelog import load_trace
        from repro.shard import ShardPlan, run_oracle

        path = tmp_path / "healthy.jsonl"
        result = run_oracle(ShardPlan.named(
            "resilience", {"flight_recorder": str(path)}, 3, duration=40.0,
        ))
        assert result["invariants_ok"]
        records = load_trace(path)
        assert records[0].data["reason"] == "end-of-run"
        assert result["flight_recorder"]["records"] == len(records) - 1

    def test_without_recorder_result_shape_unchanged(self):
        """The replay tests compare two runs for bit-identical
        equality; the flight_recorder key must not appear unless asked
        for."""
        from repro.shard import ShardPlan, run_oracle

        result = run_oracle(
            ShardPlan.named("resilience", {}, 3, duration=40.0)
        )
        assert "flight_recorder" not in result

    def test_monitor_dump_once_per_run(self, tmp_path):
        from repro.sim.trace import FlightRecorder

        net = small_network()
        recorder = FlightRecorder(net.trace)
        path = tmp_path / "once.jsonl"
        suite = MonitorSuite(net, recorder=recorder, dump_path=path)
        tx(net, 1, "9.1", hops=2)
        tx(net, 1, "9.1", hops=5)   # violation 1: dumps
        first_dump = path.read_text()
        tx(net, 1, "9.1", hops=6)   # violation 2: must not re-dump
        assert len(suite.violations) == 2
        assert recorder.dumps == 1
        assert path.read_text() == first_dump
        suite.detach()
