"""Memory-footprint accounting for micro-diffusion.

Paper Section 4.3: micro-diffusion "adds only 2050 bytes of code and
106 bytes of data to its host operating system", and as a TinyOS
component "3250B code and 144B of data (including support for radio and
a photo sensor)".  It is "statically configured to support 5 active
gradients and a cache of 10 packets of the 2 relevant bytes per
packet".

We reproduce the *data* budget structurally: the model below charges
each piece of engine state the bytes a C mote build would, and the test
suite asserts a node with one subscription fits in 106 bytes.
"""

from __future__ import annotations

from repro.micro import microdiffusion

#: paper-reported static sizes (bytes)
MICRO_CODE_BYTES = 2050
MICRO_DATA_BYTES = 106
TINYOS_COMPONENT_CODE_BYTES = 3250
TINYOS_COMPONENT_DATA_BYTES = 144
FULL_DIFFUSION_CODE_BYTES = 55 * 1024   # daemon static code
FULL_DIFFUSION_DATA_BYTES = 8 * 1024    # daemon static data

#: per-structure costs of the modeled mote build
GRADIENT_ENTRY_BYTES = 6   # tag(2) + neighbor(2) + ttl(2)
CACHE_ENTRY_BYTES = 2      # "the 2 relevant bytes per packet"
SUBSCRIPTION_ENTRY_BYTES = 4  # tag(2) + callback index(2)
ENGINE_SCALAR_BYTES = 12   # seq counter, timers, stats registers


def state_bytes() -> int:
    """Static RAM the mote build reserves, with one subscription."""
    return (
        microdiffusion.MAX_GRADIENTS * GRADIENT_ENTRY_BYTES
        + microdiffusion.CACHE_PACKETS * CACHE_ENTRY_BYTES
        + SUBSCRIPTION_ENTRY_BYTES
        + ENGINE_SCALAR_BYTES
    )


def footprint_report() -> dict:
    """Numbers for the MICRO experiment table."""
    modeled = state_bytes()
    return {
        "modeled_data_bytes": modeled,
        "paper_data_bytes": MICRO_DATA_BYTES,
        "paper_code_bytes": MICRO_CODE_BYTES,
        "within_paper_budget": modeled <= MICRO_DATA_BYTES,
        "full_diffusion_data_bytes": FULL_DIFFUSION_DATA_BYTES,
        "data_reduction_vs_full": FULL_DIFFUSION_DATA_BYTES / modeled,
    }
