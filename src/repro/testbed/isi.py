"""The ISI building testbed (paper Figure 7).

Fourteen PC/104 nodes over two floors of ISI; nodes 11, 13 and 16 are on
the 10th floor, the rest on the 11th.  The paper gives node ids and a
floor plan but no coordinates, so the geometry below is calibrated to
the textual constraints:

* the network is "typically 5 hops across";
* Figure 8 places the sink at node 28 and sources at 25, 16, 22, 13,
  "typically 4 hops apart";
* Figure 9 places the user at 39, the audio sensor at 20, and light
  sensors at 16, 25, 22, 13 — one hop from the lights to the audio
  node, two hops from there to the user;
* "radio range varies greatly depending on node position".

Coordinates are metres; the radio model gives solid links to ~20 m and
nothing past ~35 m, with a 10 m penalty per floor crossed.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core import DiffusionConfig
from repro.radio import DistancePropagation, Topology
from repro.testbed.network import SensorNetwork

#: Figure 8 roles
FIG8_SINK = 28
FIG8_SOURCES = (25, 16, 22, 13)

#: Figure 9 roles
FIG9_USER = 39
FIG9_AUDIO = 20
FIG9_LIGHTS = (16, 25, 22, 13)

#: (x, y, floor): floor 0 is the 10th floor, floor 1 the 11th.
_ISI_POSITIONS: Dict[int, Tuple[float, float, int]] = {
    25: (2.0, 2.0, 1),
    22: (0.0, 18.0, 1),
    16: (6.0, 10.0, 0),
    13: (12.0, 20.0, 0),
    20: (15.0, 12.0, 1),
    11: (20.0, 30.0, 0),
    21: (32.0, 10.0, 1),
    24: (30.0, 28.0, 1),
    39: (44.0, 22.0, 1),
    33: (48.0, 12.0, 1),
    35: (46.0, 30.0, 1),
    18: (64.0, 4.0, 1),
    17: (62.0, 20.0, 1),
    28: (78.0, 14.0, 1),
}

ISI_NODE_IDS = tuple(sorted(_ISI_POSITIONS))
ISI_TENTH_FLOOR = (11, 13, 16)

#: radio calibration for the testbed geometry
ISI_FULL_RANGE = 20.0
ISI_MAX_RANGE = 35.0
ISI_FLOOR_PENALTY = 8.0
#: each direction of a link scales its effective distance by a seeded
#: factor within +-10 %: "radio range varies greatly depending on node
#: position", and a link need not be as good one way as the other.
ISI_ASYMMETRY = 0.10

#: character cells of the :func:`format_testbed_map` rendition.
MAP_WIDTH = 66
MAP_HEIGHT = 16


def isi_testbed_topology() -> Topology:
    """The 14-node two-floor topology of Figure 7."""
    topo = Topology(floor_penalty=ISI_FLOOR_PENALTY)
    for node_id, (x, y, floor) in sorted(_ISI_POSITIONS.items()):
        topo.add_node(node_id, x, y, floor)
    return topo


def format_testbed_map() -> str:
    """An ASCII rendition of Figure 7: node positions by floor.

    Eleventh-floor nodes print as their id; tenth-floor nodes (11, 13,
    16) print in brackets, mirroring the light/dark distinction of the
    paper's figure.
    """
    xs = [x for x, _, _ in _ISI_POSITIONS.values()]
    ys = [y for _, y, _ in _ISI_POSITIONS.values()]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    width, height = MAP_WIDTH, MAP_HEIGHT
    grid = [[" "] * width for _ in range(height)]

    def place(text: str, col: int, row: int) -> None:
        col = max(0, min(width - len(text), col))
        for offset, char in enumerate(text):
            grid[row][col + offset] = char

    for node_id, (x, y, floor) in sorted(_ISI_POSITIONS.items()):
        col = round((x - x_low) / (x_high - x_low) * (width - 5))
        row = round((1 - (y - y_low) / (y_high - y_low)) * (height - 1))
        label = f"[{node_id}]" if floor == 0 else str(node_id)
        place(label, col, row)
    lines = ["ISI testbed (Figure 7) — [id] marks 10th-floor nodes:"]
    lines.extend("  " + "".join(row).rstrip() for row in grid)
    lines.append(
        f"  sink={FIG8_SINK}  sources={list(FIG8_SOURCES)}  "
        f"user={FIG9_USER}  audio={FIG9_AUDIO}"
    )
    return "\n".join(line for line in lines)


def isi_propagation(topology: Topology, seed: int) -> DistancePropagation:
    """The radio calibration that goes with the testbed geometry."""
    return DistancePropagation(
        topology,
        full_range=ISI_FULL_RANGE,
        max_range=ISI_MAX_RANGE,
        asymmetry=ISI_ASYMMETRY,
        seed=seed,
    )


def isi_testbed_network(
    seed: int = 1, config: Optional[DiffusionConfig] = None
) -> SensorNetwork:
    """A ready-to-run simulation of the ISI testbed."""
    topology = isi_testbed_topology()
    return SensorNetwork(
        topology,
        config=config,
        seed=seed,
        propagation=isi_propagation(topology, seed),
    )
