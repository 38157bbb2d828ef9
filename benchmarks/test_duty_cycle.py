"""Benchmark: the Section 6.1 duty-cycle energy analysis.

Regenerates the paper's three claims: listen-dominated at d=1, the
50%-listen crossover near d=0.2 (paper rounds to 22%), and
send-dominance below d~0.15 ("duty cycles of 10% begin to be dominated
by send cost").  Also prices the radio time of a simulated CSMA run,
always on and re-priced at a 10% duty cycle.
"""

import pytest

from repro.energy import DutyCycleModel, EnergyBreakdown, radio_energy
from repro.experiments.duty_cycle import format_table, run_duty_cycle_analysis


@pytest.fixture(scope="module")
def model():
    return DutyCycleModel()


def test_duty_cycle_table(benchmark, model):
    rows = benchmark.pedantic(run_duty_cycle_analysis, args=(model,),
                              rounds=1, iterations=1)
    print()
    print(format_table(rows))


def test_full_duty_listen_dominated(model):
    assert model.breakdown(1.0).listen_fraction > 0.8


def test_half_listen_crossover_near_paper(model):
    assert model.listen_half_duty_cycle() == pytest.approx(0.2, abs=0.05)


def test_send_dominates_at_ten_percent(model):
    b = model.breakdown(0.10)
    assert b.send > b.listen


def test_measured_run_energy_tracks_duty_cycle():
    """Energy on a live simulated run: a 10% duty-cycle MAC spends far
    less total energy than an always-listening one, with the savings
    coming out of the listen term — the paper's whole argument for
    energy-conscious MACs."""
    from repro.apps import SurveillanceExperiment
    from repro.testbed import FIG8_SINK, FIG8_SOURCES, isi_testbed_network

    net = isi_testbed_network(seed=7)
    exp = SurveillanceExperiment(net, FIG8_SINK, FIG8_SOURCES[:2])
    exp.run(duration=300.0)
    always_on = net.radio_energy(elapsed=300.0)

    priced = [
        radio_energy(stack.modem.airtime_sent, stack.modem.airtime_received,
                     0.10, 300.0)
        for stack in net.stacks.values()
    ]
    duty_cycled = EnergyBreakdown(
        listen=sum(b.listen for b in priced),
        receive=sum(b.receive for b in priced),
        send=sum(b.send for b in priced),
    )

    assert duty_cycled.total < always_on.total * 0.25
    assert duty_cycled.send == always_on.send
    assert duty_cycled.receive == always_on.receive
    assert always_on.listen_fraction > 0.9
