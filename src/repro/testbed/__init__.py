"""Network assembly: full radio stacks, ideal transports, and the ISI
testbed of paper Figure 7."""

from repro.testbed.network import IdealNetwork, SensorNetwork, ideal_line
from repro.testbed.isi import (
    ISI_NODE_IDS,
    ISI_TENTH_FLOOR,
    isi_propagation,
    isi_testbed_topology,
    isi_testbed_network,
    FIG8_SINK,
    FIG8_SOURCES,
    FIG9_USER,
    FIG9_AUDIO,
    FIG9_LIGHTS,
)

__all__ = [
    "IdealNetwork",
    "SensorNetwork",
    "ideal_line",
    "ISI_NODE_IDS",
    "ISI_TENTH_FLOOR",
    "isi_propagation",
    "isi_testbed_topology",
    "isi_testbed_network",
    "FIG8_SINK",
    "FIG8_SOURCES",
    "FIG9_USER",
    "FIG9_AUDIO",
    "FIG9_LIGHTS",
]
