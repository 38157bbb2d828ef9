"""Tests for the duty-cycle energy model and ledgers (paper Section 6.1)."""

import pytest

from repro.energy import (
    DutyCycleModel,
    EnergyLedger,
    NetworkEnergyAccount,
    PAPER_POWER_RATIOS,
)
from repro.energy import model as energy_model
from repro.energy.model import PAPER_TIME_RATIOS, paper_duty_cycle_table


class TestDutyCycleModel:
    def test_paper_claim_full_duty_listen_dominates(self):
        model = DutyCycleModel()
        b = model.breakdown(1.0)
        assert b.listen_fraction > 0.8

    def test_paper_claim_half_listen_near_22_percent(self):
        model = DutyCycleModel()
        crossover = model.listen_half_duty_cycle()
        # paper says "at duty cycle of 22% half of the energy is spent
        # listening"; the 1:2:2 power simplification puts it at 20%.
        assert 0.15 <= crossover <= 0.25
        b = model.breakdown(crossover)
        assert b.listen_fraction == pytest.approx(0.5, abs=0.01)

    def test_paper_claim_send_dominates_at_10_percent(self):
        model = DutyCycleModel()
        b = model.breakdown(0.10)
        assert b.send > b.listen

    def test_send_dominance_crossover(self):
        model = DutyCycleModel()
        d = model.send_dominance_duty_cycle()
        assert 0.10 <= d <= 0.20
        below = model.breakdown(d * 0.9)
        assert below.send > below.listen

    def test_energy_monotonic_in_duty_cycle(self):
        model = DutyCycleModel()
        energies = [model.energy(d) for d in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_invalid_duty_cycle(self):
        model = DutyCycleModel()
        with pytest.raises(ValueError):
            model.breakdown(1.5)
        with pytest.raises(ValueError):
            model.breakdown(-0.1)

    def test_zero_listen_crossover_raises(self, monkeypatch):
        monkeypatch.setattr(energy_model, "PAPER_POWER_RATIOS", (0.0, 2.0, 2.0))
        model = DutyCycleModel()
        with pytest.raises(ValueError):
            model.listen_half_duty_cycle()

    def test_table_rows(self):
        rows = paper_duty_cycle_table()
        assert [r["duty_cycle"] for r in rows] == [1.0, 0.22, 0.15, 0.10]
        assert rows[0]["listen_fraction"] > rows[-1]["listen_fraction"]

    def test_breakdown_fractions_sum_to_one(self):
        b = DutyCycleModel().breakdown(0.5)
        assert b.listen_fraction + b.receive_fraction + b.send_fraction == (
            pytest.approx(1.0)
        )


class TestEnergyLedger:
    def test_send_receive_accumulate(self):
        ledger = EnergyLedger()
        ledger.record_send(2.0)
        ledger.record_send(1.0)
        ledger.record_receive(4.0)
        assert ledger.time_sending == 3.0
        assert ledger.time_receiving == 4.0

    def test_listen_time_is_remainder(self):
        ledger = EnergyLedger()
        ledger.record_send(10.0)
        ledger.record_receive(10.0)
        assert ledger.listen_time(elapsed=100.0) == pytest.approx(80.0)

    def test_duty_cycle_scales_listen(self):
        ledger = EnergyLedger()
        ledger.duty_cycle = 0.1  # as a duty-cycled MAC sets it
        assert ledger.listen_time(elapsed=100.0) == pytest.approx(10.0)

    def test_energy_uses_power_ratios(self):
        ledger = EnergyLedger()
        ledger.record_send(10.0)
        ledger.record_receive(5.0)
        b = ledger.breakdown(elapsed=100.0)
        pl, pr, ps = PAPER_POWER_RATIOS
        assert b.send == pytest.approx(ps * 10.0)
        assert b.receive == pytest.approx(pr * 5.0)
        assert b.listen == pytest.approx(pl * 85.0)

    def test_negative_time_rejected(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError):
            ledger.record_send(-1.0)
        with pytest.raises(ValueError):
            ledger.record_receive(-1.0)

    def test_listen_time_never_negative(self):
        ledger = EnergyLedger()
        ledger.record_send(200.0)
        assert ledger.listen_time(elapsed=100.0) == 0.0


class TestNetworkAccount:
    def test_aggregates_across_nodes(self):
        account = NetworkEnergyAccount()
        account.ledger(1).record_send(10.0)
        account.ledger(2).record_send(20.0)
        b = account.total_breakdown(elapsed=100.0)
        ps = PAPER_POWER_RATIOS[2]
        assert b.send == pytest.approx(ps * 30.0)
        assert account.node_ids() == [1, 2]

    def test_ledger_memoized(self):
        account = NetworkEnergyAccount()
        assert account.ledger(1) is account.ledger(1)

    def test_total_energy_positive(self):
        account = NetworkEnergyAccount()
        account.ledger(1)
        assert account.total_energy(elapsed=10.0) > 0
