"""Link layer: fragmentation/reassembly and neighbor identity.

Paper Section 4.4: "Several low-power radio designs have packet sizes as
small as 30B.  We require moderate size packets (100B or more) and use
code for fragmentation and reassembly when necessary."  Section 6.1:
"Since all messages are broken into several 27-byte fragments, loss of a
single fragment results in loss of the whole message."
"""

from repro.link.frag import FragmentationLayer, Fragment, ReassemblyExpiry

__all__ = [
    "FragmentationLayer",
    "Fragment",
    "ReassemblyExpiry",
]
