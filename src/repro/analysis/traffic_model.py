"""The paper's analytical traffic model (Section 6.1).

"We can confirm these results with a simple traffic model.  We
approximate all messages as 127B long and add together interest
messages (sent every 60s and flooded from each node), reinforcement
messages (sent on the reinforced path between the sink and each
source), simple data messages (9 out of every 10 data messages, sent
only on the reinforced path, and either aggregated or not), and
exploratory data messages (1 out of every 10 data messages, sent from
each source and flooded in turn from each node, again possibly
aggregated).  ...  Summing the message cost and normalizing per event
we expect aggregation to provide a flat 990B/event independent of the
number of sources, and we expect bytes sent per event to increase from
990 to 3289B/event without aggregation as the number of sources rise
from 1 to 4."

With N=14 nodes, 5-hop source-sink paths, 127-byte messages, one data
message per 6 s and one exploratory per ten data messages, the model
below yields 990 B/event aggregated (flat in the number of sources) and
990→3429 B/event unaggregated — the paper quotes 3289 at four sources,
a 4% difference we attribute to an unstated rounding in the paper's
arithmetic (the shape and the single-source anchor are exact).
"""

from __future__ import annotations

from dataclasses import dataclass

#: the model's fixed testbed numbers: 5-hop source-sink paths, every
#: message approximated as 127 B, one data message per 6 s, interests
#: re-flooded every 60 s.
PATH_HOPS = 5
MESSAGE_BYTES = 127
DATA_INTERVAL = 6.0
INTEREST_INTERVAL = 60.0


@dataclass(frozen=True)
class TrafficBreakdown:
    """Per-event byte cost split by message class."""

    interest: float
    exploratory: float
    data: float
    reinforcement: float

    @property
    def total(self) -> float:
        return self.interest + self.exploratory + self.data + self.reinforcement


@dataclass(frozen=True)
class TrafficModel:
    """Parameters of the Section 6.1 model, defaulting to the testbed's."""

    nodes: int = 14
    exploratory_ratio: int = 10   # one exploratory per this many data msgs

    def _flood_cost(self) -> float:
        """Bytes for one network-wide flood: every node sends once."""
        return self.nodes * MESSAGE_BYTES

    def breakdown(self, sources: int, aggregated: bool) -> TrafficBreakdown:
        """Per-distinct-event byte costs for ``sources`` sources."""
        if sources < 1:
            raise ValueError("need at least one source")
        events_per_interest = INTEREST_INTERVAL / DATA_INTERVAL
        interest = self._flood_cost() / events_per_interest

        per_source_exploratory = self._flood_cost() / self.exploratory_ratio
        per_source_data = (
            (self.exploratory_ratio - 1)
            / self.exploratory_ratio
            * PATH_HOPS
            * MESSAGE_BYTES
        )
        per_source_reinforcement = (
            PATH_HOPS * MESSAGE_BYTES / self.exploratory_ratio
        )

        if aggregated:
            # Duplicates die at the first hop: network-wide cost is that
            # of a single source, independent of how many report.
            multiplier = 1
        else:
            multiplier = sources
        return TrafficBreakdown(
            interest=interest,
            exploratory=multiplier * per_source_exploratory,
            data=multiplier * per_source_data,
            reinforcement=multiplier * per_source_reinforcement,
        )

    def bytes_per_event(self, sources: int, aggregated: bool) -> float:
        return self.breakdown(sources, aggregated).total

    def savings(self, sources: int) -> float:
        """Fractional traffic saved by aggregation at ``sources`` sources."""
        without = self.bytes_per_event(sources, aggregated=False)
        with_agg = self.bytes_per_event(sources, aggregated=True)
        return 1.0 - with_agg / without

    def table(self):
        """Rows mirroring Figure 8's two curves, 1-4 sources."""
        rows = []
        for sources in range(1, 5):
            rows.append(
                {
                    "sources": sources,
                    "aggregated": self.bytes_per_event(sources, True),
                    "unaggregated": self.bytes_per_event(sources, False),
                    "savings": self.savings(sources),
                }
            )
        return rows
