"""Energy modelling (paper Section 6.1).

The testbed could not measure energy directly; the paper substitutes the
analytical model ``Pd = d*pl*tl + pr*tr + ps*ts`` with measured
listen:receive:send time ratios of about 1:3:40 and assumed power ratios
of 1:2:2.  We implement the same model, plus :func:`radio_energy`, which
prices the airtime a modem keeps so simulated runs report energy
alongside traffic.
"""

from repro.energy.model import (
    DutyCycleModel,
    EnergyBreakdown,
    PAPER_POWER_RATIOS,
    radio_energy,
)

__all__ = [
    "DutyCycleModel",
    "EnergyBreakdown",
    "PAPER_POWER_RATIOS",
    "radio_energy",
]
