"""Radio calibration reports for a topology + propagation pair.

The ISI testbed description is textual ("typically 5 hops across",
"one hop from the light sensors to the audio sensor"); this module
turns a configured topology into the numbers behind those sentences, so
calibration claims are checkable rather than folklore:

* per-directed-link PRR matrix (and the asymmetry between directions);
* a connectivity graph over usable links and its hop metrics;
* a one-call validation of the ISI testbed's textual constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.radio.topology import Topology
from repro.testbed.isi import (
    FIG8_SINK,
    FIG8_SOURCES,
    FIG9_AUDIO,
    FIG9_LIGHTS,
    FIG9_USER,
    isi_propagation,
    isi_testbed_topology,
)

#: links below this PRR are not usable for multi-fragment messages
USABLE_PRR = 0.5


@dataclass(frozen=True)
class LinkReport:
    """One node pair's channel quality, both directions."""

    a: int
    b: int
    prr_ab: float
    prr_ba: float

    @property
    def asymmetry(self) -> float:
        return abs(self.prr_ab - self.prr_ba)

    @property
    def usable(self) -> bool:
        return min(self.prr_ab, self.prr_ba) >= USABLE_PRR

    @property
    def one_way_only(self) -> bool:
        """The pathological case Section 6.4 complains about."""
        high, low = max(self.prr_ab, self.prr_ba), min(self.prr_ab, self.prr_ba)
        return high >= USABLE_PRR and low < USABLE_PRR


def link_reports(topology: Topology, propagation) -> List[LinkReport]:
    """PRRs for every pair with any connectivity at all, as the links
    stand at t = 0 (the calibration is of the static deployment)."""
    reports = []
    for a, b in topology.pairs():
        prr_ab = propagation.link_prr(a, b, 0.0)
        prr_ba = propagation.link_prr(b, a, 0.0)
        if prr_ab > 0.0 or prr_ba > 0.0:
            reports.append(LinkReport(a=a, b=b, prr_ab=prr_ab, prr_ba=prr_ba))
    return reports


def usable_graph(topology: Topology, propagation) -> Dict[int, Set[int]]:
    """Each node's neighbours over links usable in both directions."""
    graph: Dict[int, Set[int]] = {n: set() for n in topology.node_ids()}
    for report in link_reports(topology, propagation):
        if report.usable:
            graph[report.a].add(report.b)
            graph[report.b].add(report.a)
    return graph


def _hop_map(graph: Dict[int, Set[int]], source: int) -> Dict[int, int]:
    """Breadth-first hop count from ``source`` to every node it reaches."""
    hops = {source: 0}
    queue = [source]
    for node in queue:
        for neighbour in graph[node]:
            if neighbour not in hops:
                hops[neighbour] = hops[node] + 1
                queue.append(neighbour)
    return hops


@dataclass
class CalibrationSummary:
    """The numbers behind the testbed's textual description."""

    node_count: int
    usable_links: int
    one_way_links: int
    connected: bool
    diameter_hops: Optional[int]
    hop_counts: Dict[Tuple[int, int], Optional[int]]


def summarize(
    topology: Topology,
    propagation,
    pairs_of_interest: List[Tuple[int, int]] = (),
) -> CalibrationSummary:
    reports = link_reports(topology, propagation)
    graph = usable_graph(topology, propagation)
    hop_maps = {node: _hop_map(graph, node) for node in graph}
    # An empty graph is not connected; one node is, at diameter 0.
    connected = {len(m) for m in hop_maps.values()} == {len(graph)}
    diameter = (
        max(max(m.values()) for m in hop_maps.values()) if connected else None
    )
    # No path, or an absent node, gives no hop count.
    hops = {(a, b): hop_maps.get(a, {}).get(b) for a, b in pairs_of_interest}
    return CalibrationSummary(
        node_count=len(topology),
        usable_links=sum(1 for r in reports if r.usable),
        one_way_links=sum(1 for r in reports if r.one_way_only),
        connected=connected,
        diameter_hops=diameter,
        hop_counts=hops,
    )


def validate_isi(seed: int = 1) -> Dict[str, bool]:
    """Check the paper's textual constraints against the configured
    ISI testbed geometry.  All values should be True."""
    from repro.radio import DistancePropagation
    from repro.testbed.isi import (
        FIG8_SINK,
        FIG8_SOURCES,
        FIG9_AUDIO,
        FIG9_LIGHTS,
        FIG9_USER,
        ISI_FULL_RANGE,
        ISI_MAX_RANGE,
        isi_testbed_topology,
    )

    topology = isi_testbed_topology()
    propagation = isi_propagation(topology, seed)
    pairs = [(source, FIG8_SINK) for source in FIG8_SOURCES]
    pairs += [(light, FIG9_AUDIO) for light in FIG9_LIGHTS]
    pairs.append((FIG9_AUDIO, FIG9_USER))
    summary = summarize(topology, propagation, pairs_of_interest=pairs)
    source_hops = [summary.hop_counts[(s, FIG8_SINK)] for s in FIG8_SOURCES]
    light_hops = [summary.hop_counts[(l, FIG9_AUDIO)] for l in FIG9_LIGHTS]
    return {
        "fourteen_nodes": summary.node_count == 14,
        "connected": summary.connected,
        "five_hops_across": summary.diameter_hops in (4, 5, 6),
        "sources_about_4_hops_from_sink": all(
            h is not None and 3 <= h <= 6 for h in source_hops
        ),
        "lights_one_hop_from_audio": all(h == 1 for h in light_hops),
        "user_two_hops_from_audio": summary.hop_counts[
            (FIG9_AUDIO, FIG9_USER)
        ] == 2,
    }
