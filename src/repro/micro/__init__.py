"""Micro-diffusion (paper Section 4.3).

A bare subset of diffusion for 8-bit motes: attributes condensed to a
single 16-bit tag, at most 5 active gradients, a 10-entry cache of 2
relevant bytes per packet, and no reinforcement.  A gateway node runs
both stacks and bridges a mote tier into the full-diffusion tier — the
paper's tiered architecture.
"""

from repro.micro.microdiffusion import (
    MicroDiffusionNode,
    MicroMessage,
    MicroMessageKind,
)
from repro.micro.gateway import MicroGateway, TagRegistry, tiered_trial
from repro.micro.footprint import (
    MICRO_CODE_BYTES,
    MICRO_DATA_BYTES,
    TINYOS_COMPONENT_CODE_BYTES,
    TINYOS_COMPONENT_DATA_BYTES,
    state_bytes,
)

__all__ = [
    "MicroDiffusionNode",
    "MicroMessage",
    "MicroMessageKind",
    "MicroGateway",
    "TagRegistry",
    "tiered_trial",
    "MICRO_CODE_BYTES",
    "MICRO_DATA_BYTES",
    "TINYOS_COMPONENT_CODE_BYTES",
    "TINYOS_COMPONENT_DATA_BYTES",
    "state_bytes",
]
