"""Ablation: duty-cycled MAC — energy vs delivery trade-off.

Section 6.1 argues that without sleeping, listen energy dominates, and
that duty cycles of 10-15% change the balance entirely.  The paper
could not measure this ("we are currently experimenting with
power-aware MAC approaches"); this bench runs the measurement its
analysis predicts: the same surveillance workload over always-on CSMA
vs duty-cycled CSMA, reporting delivery and total radio energy.

The workload is the ``line`` preset with ``duty_cycle`` named (a
5-node chain, one event every 6 s) and runs here through the campaign
subsystem, the same path ``python -m repro campaign run
ablation-dutycycle`` takes.
"""

import pytest

from repro.campaign import run_campaign
from repro.campaign.builtin import dutycycle_campaign, plan_trial
from repro.shard.scenario import get_scenario, stream_sends

pytestmark = pytest.mark.slow


def run_workload(duty_cycle: float, seed: int = 5):
    fixed = dutycycle_campaign().fixed
    return plan_trial({**fixed, "duty_cycle": duty_cycle}, seed=seed)


@pytest.fixture(scope="module")
def sweep():
    """One row per duty cycle, 1.0 first: energy and delivery ratio."""
    campaign = dutycycle_campaign()
    report = run_campaign(campaign)
    assert report.ok
    sends = stream_sends(get_scenario("line").resolve(campaign.fixed))
    return [
        {
            "duty_cycle": outcome.spec.params["duty_cycle"],
            "delivery": outcome.result["app_delivered"] / sends,
            "energy": outcome.result["energy"]["total"],
        }
        for outcome in report.outcomes
    ]


def test_duty_cycle_sweep(benchmark, sweep):
    benchmark.pedantic(run_workload, args=(1.0, 99), rounds=1, iterations=1)
    print()
    print(f"{'duty':>6} {'delivery':>9} {'total energy':>13}")
    for row in sweep:
        print(
            f"{row['duty_cycle']:>6.1f} {row['delivery']:>9.2f} "
            f"{row['energy']:>13.0f}"
        )
    energies = [row["energy"] for row in sweep]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    # Low duty cycles save most of the energy while the deferred-window
    # MAC keeps delivering (the windows are synchronized).
    assert sweep[-1]["energy"] < sweep[0]["energy"] * 0.25
    assert sweep[-1]["delivery"] > 0.5


def test_energy_monotone_in_duty_cycle(sweep):
    energies = [row["energy"] for row in sweep]
    assert energies == sorted(energies, reverse=True)


def test_delivery_survives_low_duty(sweep):
    assert sweep[-1]["delivery"] > 0.5
