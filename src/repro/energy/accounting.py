"""Per-node and network-wide energy ledgers.

The modem reports time spent sending and receiving; listening time is
whatever remains of the elapsed experiment, scaled by the MAC's listen
duty cycle.  Energy comes out in the paper's relative units (listen
power = 1).
"""

from __future__ import annotations

from typing import Dict

from repro.energy.model import DutyCycleModel, EnergyBreakdown


class EnergyLedger:
    """Accumulates radio-state time for one node, priced at the paper's
    power ratios."""

    def __init__(self) -> None:
        self.model = DutyCycleModel()
        #: the MAC's listen duty cycle; a duty-cycled MAC lowers it.
        self.duty_cycle = 1.0
        self.time_sending = 0.0
        self.time_receiving = 0.0

    def record_send(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative send time")
        self.time_sending += seconds

    def record_receive(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative receive time")
        self.time_receiving += seconds

    def listen_time(self, elapsed: float) -> float:
        """Idle-listening seconds over an experiment of ``elapsed`` s."""
        active = self.time_sending + self.time_receiving
        return max(0.0, elapsed - active) * self.duty_cycle

    def breakdown(self, elapsed: float) -> EnergyBreakdown:
        """Energy split using *measured* times (not the model's ratios)."""
        return EnergyBreakdown(
            listen=self.model.p_listen * self.listen_time(elapsed),
            receive=self.model.p_receive * self.time_receiving,
            send=self.model.p_send * self.time_sending,
        )

    def energy(self, elapsed: float) -> float:
        return self.breakdown(elapsed).total


class NetworkEnergyAccount:
    """Aggregates ledgers across all nodes of an experiment."""

    def __init__(self) -> None:
        self._ledgers: Dict[int, EnergyLedger] = {}

    def ledger(self, node_id: int) -> EnergyLedger:
        if node_id not in self._ledgers:
            self._ledgers[node_id] = EnergyLedger()
        return self._ledgers[node_id]

    def total_energy(self, elapsed: float) -> float:
        return sum(ledger.energy(elapsed) for ledger in self._ledgers.values())

    def total_breakdown(self, elapsed: float) -> EnergyBreakdown:
        listen = receive = send = 0.0
        for ledger in self._ledgers.values():
            b = ledger.breakdown(elapsed)
            listen += b.listen
            receive += b.receive
            send += b.send
        return EnergyBreakdown(listen=listen, receive=receive, send=send)

    def node_ids(self):
        return sorted(self._ledgers)
