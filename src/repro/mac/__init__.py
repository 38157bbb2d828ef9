"""Medium access control.

The paper's testbed MAC is "quite unsophisticated, performing only
simple carrier detection and lacking RTS/CTS or ARQ" (Section 6.1) —
:class:`~repro.mac.csma.CsmaMac` reproduces exactly that, hidden
terminals and all.  Its ``duty_cycle`` (``set_duty_cycle``) adds the
sleep schedule the paper says long-lived networks need (duty cycles of
10–15% on WINSng-style nodes); it is the one writer of a radio's
``sleeping`` flag, and an energy brownout fault lowers it.
"""

from repro.mac.base import Mac, MacStats
from repro.mac.csma import CsmaMac

__all__ = ["Mac", "MacStats", "CsmaMac"]
