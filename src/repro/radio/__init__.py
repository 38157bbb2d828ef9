"""Wireless substrate: positions, propagation, shared channel, modems.

Models the paper's testbed radio environment: Radiometrix RPC packet
modems (~13 kb/s, 27-byte fragments), attenuated antennas for multi-hop
operation indoors, asymmetric and intermittent links, and a shared
medium where hidden terminals corrupt overlapping transmissions.
"""

from repro.radio.channel import Channel, Transmission
from repro.radio.modem import BROADCAST_ADDRESS, Modem, RadioParams
from repro.radio.neighborhood import NeighborhoodIndex
from repro.radio.propagation import (
    DistancePropagation,
    GilbertElliotLink,
    PropagationModel,
    TablePropagation,
)
from repro.radio.reference import ReferenceChannel
from repro.radio.topology import Position, Topology

__all__ = [
    "Channel",
    "ReferenceChannel",
    "Transmission",
    "Modem",
    "RadioParams",
    "BROADCAST_ADDRESS",
    "PropagationModel",
    "DistancePropagation",
    "TablePropagation",
    "GilbertElliotLink",
    "NeighborhoodIndex",
    "Position",
    "Topology",
]
