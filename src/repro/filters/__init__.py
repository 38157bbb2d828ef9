"""Application filters: in-network processing (paper Sections 3.3, 5).

* :class:`SuppressionFilter` — the Figure 8 aggregation filter: "pass
  the first unique event and suppress subsequent events with identical
  sequence numbers".
* :class:`CountingAggregationFilter` — the "more sophisticated filter"
  the paper sketches: delays briefly, counts detecting sensors, and
  annotates the surviving event.
* :class:`GearFilter` — geographically constrained interest forwarding,
  the paper's cited future-work optimization [39].
"""

from repro.filters.aggregation import CountingAggregationFilter, SuppressionFilter
from repro.filters.gear import GearFilter

__all__ = [
    "SuppressionFilter",
    "CountingAggregationFilter",
    "GearFilter",
]
