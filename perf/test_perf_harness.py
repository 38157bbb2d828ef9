"""Tests of the perf harness itself (``python -m pytest perf -q``).

Outside tier-1's ``testpaths`` on purpose: the last test runs the
1k-node workload twice.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_span_self_times_on_a_synthetic_stack():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def naming():
        clock.now += 1.0

    def core():
        clock.now += 2.0
        spanned_naming()
        spanned_naming()
        clock.now += 0.5

    def radio_event():
        clock.now += 3.0
        spanned_core()
        clock.now += 0.25

    spanned_naming = tracer.span(naming, "naming")
    spanned_core = tracer.span(core, "core")
    spanned_event = tracer.span(radio_event, "radio")

    tracer.start()
    clock.now += 10.0            # root: network assembly
    spanned_event()
    spanned_event()
    clock.now += 0.5
    tracer.finish()

    report = tracer.report()
    layers = report["layers"]
    assert layers["naming"] == {"self_s": 4.0, "calls": 4}
    assert layers["core"] == {"self_s": 5.0, "calls": 2}
    assert layers["radio"] == {"self_s": 6.5, "calls": 2}
    assert layers["testbed"]["self_s"] == 10.5
    assert report["traced_wall_s"] == 26.0
    assert sum(layer["self_s"] for layer in layers.values()) == 26.0


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    tracer.start()
    with pytest.raises(ValueError):
        tracer.span(boom, "mac")()
    tracer.finish()
    assert tracer.report()["layers"]["mac"] == {"self_s": 1.0, "calls": 1}


def test_site_and_module_labels():
    assert spans.layer_of_site("channel.rx") == "radio"
    assert spans.layer_of_site("csma.backoff") == "mac"
    assert spans.layer_of_site("frag.expire") == "link"
    assert spans.layer_of_site("fault.partition") == "faults"
    assert spans.layer_of_site("telemetry.sample") == "other"
    assert spans.layer_of_module("repro.filters.aggregation") == "filters"
    assert spans.layer_of_module("repro.shard.scenario") == "apps"
    assert spans.layer_of_module("repro.shard.worker") == "other"
    assert spans.layer_of_module("__main__", default="apps") == "apps"


def _wrapped_attributes():
    import repro.core.node as core_node
    from repro.core.api import DiffusionRouting
    from repro.core.node import DiffusionNode
    from repro.link.frag import FragmentationLayer
    from repro.mac import CsmaMac
    from repro.mac.base import Mac
    from repro.naming import engine
    from repro.radio.channel import Channel
    from repro.radio.modem import Modem
    from repro.sim.kernel import Simulator

    owners = (
        (Simulator, ("_dispatch", "run", "run_window", "step")),
        (Channel, ("__init__", "start_transmission", "carrier_busy")),
        (Modem, ("transmit_fragment", "deliver")),
        (Mac, ("enqueue",)),
        (FragmentationLayer, ("send_message", "on_fragment")),
        (DiffusionNode, ("_on_network_message", "add_filter", "subscribe")),
        (DiffusionRouting, ("subscribe", "publish", "send")),
        (engine.MatchIndex, ("__init__", "one_way")),
        (engine, ("fast_one_way_match",)),
        (core_node, ("fast_two_way_match",)),
    )
    assert "enqueue" not in CsmaMac.__dict__     # covered through Mac
    return {
        (owner, attr): vars(owner)[attr] for owner, attrs in owners for attr in attrs
    }


def test_wrappers_install_and_uninstall_cleanly():
    before = _wrapped_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _wrapped_attributes()
        assert all(during[key] is not before[key] for key in before)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


def _small_grid_digest(traced: bool):
    from repro.shard import get_scenario
    from repro.sim import MetricsRegistry, use_registry

    params = {"columns": 5, "rows": 5, "duration": 12.0}
    tracer = spans.Tracer()
    if traced:
        tracer.install()
    try:
        with use_registry(MetricsRegistry()) if traced else nullcontext():
            tracer.start()
            scenario = get_scenario("diffusion")
            topology = scenario.topology(params)
            net = scenario.build(topology, topology.node_ids(), params, 7)
            net.sim.run(until=12.0)
            tracer.finish()
    finally:
        tracer.uninstall()
    return workloads.digest_of(net.outcome()), net.outcome(), tracer.report()


def test_traced_and_untraced_digests_agree_on_a_5x5_grid():
    plain_digest, outcome, _ = _small_grid_digest(traced=False)
    traced_digest, _, report = _small_grid_digest(traced=True)
    assert outcome["app_delivered"] > 0
    assert traced_digest == plain_digest
    layers = report["layers"]
    for layer in ("sim", "radio", "mac", "link", "naming", "core", "apps"):
        assert layers[layer]["calls"] > 0, layer
    assert layers["other"]["self_s"] == 0.0
    total = sum(layer["self_s"] for layer in layers.values())
    assert total == pytest.approx(report["traced_wall_s"], rel=1e-6)


def test_benchmark_json_matches_the_catalogue():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["perf"]
    assert [w["name"] for w in contract["workloads"]] == [
        name for name, w in workloads.WORKLOADS.items() if not w.ledger_only
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
        if m.name.split(".")[0] not in metrics.LEDGER_ONLY_LAYERS
    ]
    catalogue = {m.name: m for m in metrics.END_TO_END}
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}
    for m in contract["end_to_end"]:
        assert catalogue[m["name"]].better == m["better"]
        assert catalogue[m["name"]].kind == "host"
        assert 0 < m["bound"] <= 0.25


def test_calibrator_samples_and_keeps_itself_off_the_clock():
    calibrator = child.Calibrator()
    wall0, cpu0 = calibrator.clocks()
    calibrator.sample(3)
    calibrator.tick()               # sampled just now: not due
    wall1, cpu1 = calibrator.clocks()
    assert calibrator.wall_s > 0 and calibrator.cpu_s > 0
    # Three ~9 ms loops ran between the two readings; the clocks skip them.
    assert wall1 - wall0 < calibrator.wall_s / 2
    assert cpu1 - cpu0 < calibrator.cpu_s / 2
    speed, cpu_speed, samples = calibrator.host_speed()
    assert samples == 3
    assert 0.2 < speed < 20 and 0.2 < cpu_speed < 20


def test_summarize_reports_the_median_and_keeps_the_raw_time():
    rounds = [
        {"wall_s": 2.0, "wall_raw_s": 3.0, "peak_rss_mb": 40.0},
        {"wall_s": 2.2, "wall_raw_s": 2.4, "peak_rss_mb": 41.0},
        {"wall_s": 2.1, "wall_raw_s": 2.1, "peak_rss_mb": 42.0},
    ]
    assert run.summarize("wall_s", rounds) == {
        "value": 2.1, "min": 2.0, "max": 2.2, "n": 3, "unit": "s", "raw": 2.4,
    }
    assert "raw" not in run.summarize("peak_rss_mb", rounds)


def _entry(median, low, high):
    return {"value": median, "min": low, "max": high, "n": 3, "unit": "s"}


def test_compare_verdicts():
    base = _entry(10.0, 9.8, 10.3)
    verdict = compare.host_verdict
    assert verdict(base, _entry(10.5, 10.2, 10.9), True, 0.10) == "same"
    assert verdict(base, _entry(12.0, 11.5, 12.4), True, 0.10) == "worse"
    assert verdict(base, _entry(12.0, 10.1, 13.0), True, 0.10) == "unresolved"
    assert verdict(base, _entry(8.0, 7.7, 8.2), True, 0.10) == "better"
    assert verdict(base, _entry(8.0, 7.7, 9.9), True, 0.10) == "unresolved"
    # higher-is-better metrics mirror
    assert verdict(base, _entry(12.0, 11.5, 12.4), False, 0.10) == "better"
    # setup_s: an absolute slack on top of the relative bound
    small = _entry(0.10, 0.09, 0.11)
    assert verdict(small, _entry(0.14, 0.13, 0.15), True, 0.25, 0.05) == "same"
    assert compare.exact_verdict(0.5, 0.5, False, True) == "same"
    assert compare.exact_verdict(0.5, 0.4, False, True) == "worse"
    assert compare.exact_verdict(0.5, 0.4, True, True) == "better"
    assert compare.exact_verdict(0.5, 0.4, True, False) == "n/a"


def test_regional_1k_trace_budget():
    """At least 95% of host time lands in a named layer, self times sum
    to the traced wall, and tracing costs at most 1.3x — on the workload
    where every layer works."""
    ratios = []
    for _attempt in range(2):       # host noise: best of two
        untraced = run.one_round("regional_1k", 11)
        traced = run.one_round("regional_1k", 11, traced=True)
        assert traced["outcome_digest"] == untraced["outcome_digest"]
        values = metrics.per_layer_values(untraced, traced, None, None)
        ratios.append(values["trace.overhead_ratio"])
        if ratios[-1] <= 1.3:
            break
    assert min(ratios) <= 1.3
    assert values["trace.unattributed_share"] <= 0.05
    layers = traced["trace"]["layers"]
    total = sum(layer["self_s"] for layer in layers.values())
    assert total == pytest.approx(traced["trace"]["traced_wall_s"], rel=0.01)
    assert all(
        values[f"{layer}.self_s"] > 0
        for layer in ("sim", "radio", "mac", "link", "naming", "core")
    )
    assert all(value is None for name, value in values.items()
               if name.startswith("shard."))
