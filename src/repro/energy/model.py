"""The paper's duty-cycle energy model.

Section 6.1: "A simple model of energy consumption is
``Pd = d*pl*tl + pr*tr + ps*ts``, where p and t define the relative
power and time spent listening, receiving, and sending and d is defined
as the required listen duty cycle."

The paper prints the measured time ratios as "listen:receive:send ...
about 1:3:40", but its three numerical claims —

* at d = 1, energy is "completely dominated" by listening,
* at d = 22%, half the energy is spent listening,
* at d = 10%, send cost begins to dominate

— are only mutually consistent when listening holds the *large* share
(a radio listens whenever it is not sending or receiving, so idle
listening dominates wall-clock time).  With time ratios
listen:receive:send = 40:1:3 and the paper's power ratios 1:2:2:

* d = 1.0:  listen = 40 of 48 total (83%, dominant);
* d = 0.20: listen = 8 = receive+send = 8 (the 50% crossover, the
  paper rounds to 22%);
* d = 0.15: listen = 6 = send = 6; below this send dominates, hence
  "duty cycles of 10% begin to be dominated by send cost".

We therefore adopt 40:1:3 as the canonical time ratios and note the
discrepancy in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

#: power ratios (listen, receive, send) the paper assumes "for simplicity"
PAPER_POWER_RATIOS = (1.0, 2.0, 2.0)

#: time ratios (listen, receive, send) consistent with the paper's claims
PAPER_TIME_RATIOS = (40.0, 1.0, 3.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Relative energy split between radio states."""

    listen: float
    receive: float
    send: float

    @property
    def total(self) -> float:
        return self.listen + self.receive + self.send

    @property
    def listen_fraction(self) -> float:
        total = self.total
        return self.listen / total if total > 0 else 0.0

    @property
    def send_fraction(self) -> float:
        total = self.total
        return self.send / total if total > 0 else 0.0

    @property
    def receive_fraction(self) -> float:
        total = self.total
        return self.receive / total if total > 0 else 0.0


class DutyCycleModel:
    """Evaluate ``Pd = d*pl*tl + pr*tr + ps*ts`` for given ratios.

    The duty cycle ``d`` scales only the listen term: sleeping saves
    idle listening, but traffic still has to be received and sent.
    """

    def __init__(self) -> None:
        self.p_listen, self.p_receive, self.p_send = PAPER_POWER_RATIOS
        self.t_listen, self.t_receive, self.t_send = PAPER_TIME_RATIOS

    def breakdown(self, duty_cycle: float) -> EnergyBreakdown:
        if not 0.0 <= duty_cycle <= 1.0:
            raise ValueError("duty cycle must be within [0, 1]")
        return EnergyBreakdown(
            listen=duty_cycle * self.p_listen * self.t_listen,
            receive=self.p_receive * self.t_receive,
            send=self.p_send * self.t_send,
        )

    def energy(self, duty_cycle: float) -> float:
        return self.breakdown(duty_cycle).total

    def listen_half_duty_cycle(self) -> float:
        """Duty cycle at which listening is exactly half the energy."""
        listen_unit = self.p_listen * self.t_listen
        if listen_unit == 0:
            raise ValueError("listen power/time is zero; no crossover")
        non_listen = self.p_receive * self.t_receive + self.p_send * self.t_send
        return min(1.0, non_listen / listen_unit)

    def send_dominance_duty_cycle(self) -> float:
        """Duty cycle below which send energy exceeds listen energy."""
        listen_unit = self.p_listen * self.t_listen
        if listen_unit == 0:
            raise ValueError("listen power/time is zero; no crossover")
        return min(1.0, (self.p_send * self.t_send) / listen_unit)


def radio_energy(
    sent: float, received: float, duty_cycle: float, elapsed: float
) -> EnergyBreakdown:
    """One radio's energy over an experiment of ``elapsed`` seconds, from
    the *measured* seconds it spent sending and receiving (a modem's
    ``airtime_sent`` / ``airtime_received``) rather than the model's
    ratios.  The radio listens for the rest of the time, scaled by its
    MAC's listen duty cycle, and each state is priced at the paper's
    power ratios."""
    p_listen, p_receive, p_send = PAPER_POWER_RATIOS
    listen = max(0.0, elapsed - (sent + received)) * duty_cycle
    return EnergyBreakdown(
        listen=p_listen * listen, receive=p_receive * received, send=p_send * sent
    )


#: the listen duty cycles Section 6.1 evaluates.
PAPER_DUTY_CYCLES = (1.0, 0.22, 0.15, 0.10)


def paper_duty_cycle_table(model: DutyCycleModel = None):
    """The Section 6.1 analysis as rows of (d, per-state fractions)."""
    model = model or DutyCycleModel()
    rows = []
    for d in PAPER_DUTY_CYCLES:
        b = model.breakdown(d)
        rows.append(
            {
                "duty_cycle": d,
                "listen_fraction": b.listen_fraction,
                "receive_fraction": b.receive_fraction,
                "send_fraction": b.send_fraction,
                "relative_energy": b.total,
            }
        )
    return rows
