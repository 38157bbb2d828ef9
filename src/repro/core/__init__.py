"""Directed diffusion core (paper Sections 3 and 4).

The core manages interests, gradients, exploratory data, reinforcement
and the filter pipeline.  Applications use the publish/subscribe API of
:class:`~repro.core.api.DiffusionRouting` (Figure 4 of the paper) and
the filter API (Figure 5); both are facades over
:class:`~repro.core.node.DiffusionNode`.
"""

from repro.core.config import DiffusionConfig
from repro.core.messages import Message, MessageType
from repro.core.gradient import GradientTable, InterestEntry
from repro.core.cache import DataCache
from repro.core.filter_api import Filter, FilterHandle, GRADIENT_FILTER_PRIORITY
from repro.core.node import DiffusionNode
from repro.core.api import DiffusionRouting, PublicationHandle, SubscriptionHandle

__all__ = [
    "DiffusionConfig",
    "Message",
    "MessageType",
    "GradientTable",
    "InterestEntry",
    "DataCache",
    "Filter",
    "FilterHandle",
    "GRADIENT_FILTER_PRIORITY",
    "DiffusionNode",
    "DiffusionRouting",
    "PublicationHandle",
    "SubscriptionHandle",
]
