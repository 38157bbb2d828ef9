"""The filter API (paper Figure 5).

A filter is a callback registered with an attribute match spec and a
priority.  When a message enters the node, matching filters run from
highest to lowest priority; each filter decides whether processing
continues by calling ``send_message`` (continue down the pipeline) or
``send_message_to_next`` (skip straight to the network), or by doing
nothing (the message dies).  The diffusion core's own routing logic is
itself a filter at :data:`GRADIENT_FILTER_PRIORITY`, so applications
interpose above it.  Nothing runs below it: the gradient filter matches
every message and hands it to the network itself, so ``add_filter``
refuses a lower priority.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from repro.naming import AttributeVector, fast_one_way_match

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.messages import Message

#: priority of the built-in gradient (routing) filter; application
#: filters must sit above it and see messages before routing (the core
#: transmits whatever reaches it, so a filter below would never run).
GRADIENT_FILTER_PRIORITY = 80

_handle_counter = itertools.count(1)


@dataclass(frozen=True)
class FilterHandle:
    """Opaque identifier returned by ``add_filter``."""

    handle_id: int
    priority: int


@dataclass
class Filter:
    """One registered filter."""

    attrs: AttributeVector
    priority: int
    callback: Callable[["Message", FilterHandle], None]
    handle: FilterHandle = field(init=False)
    name: str = ""

    def __post_init__(self) -> None:
        self.handle = FilterHandle(next(_handle_counter), self.priority)
        if not 1 <= self.priority <= 254:
            raise ValueError("filter priority must be within [1, 254]")

    def matches(self, message: "Message") -> bool:
        """Filter attrs one-way match the message's effective attributes.

        The message side contributes the implicit ``class IS <type>``
        actual so filters can select interests vs data.  Runs on the
        fast-path matcher: the filter's formal key-set is precomputed
        once on its (immutable) attribute vector, so non-matching
        messages are usually rejected by a frozenset subset test
        before any value comparison.
        """
        return fast_one_way_match(self.attrs, message.matching_attrs())
