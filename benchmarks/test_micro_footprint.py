"""Benchmark: Section 4.3 — micro-diffusion footprint and gateway.

Verifies the static-size story (5 gradients, 10-packet cache, data
budget within the paper's 106 bytes) and benchmarks end-to-end delivery
through a tiered mote network behind a gateway.
"""

import pytest

from repro.micro import (
    MICRO_DATA_BYTES,
    MicroDiffusionNode,
    MicroMessage,
    MicroMessageKind,
    state_bytes,
    tiered_trial,
)
from repro.micro.footprint import footprint_report
from repro.micro.microdiffusion import CACHE_PACKETS, MAX_GRADIENTS
from repro.sim import Simulator
from repro.testbed import IdealNetwork


def test_tiered_delivery(benchmark):
    result = benchmark.pedantic(tiered_trial, rounds=1, iterations=1)
    # lossless ideal transport; warmup losses only
    assert result["delivered"] >= 15
    assert result["interests_bridged"] >= 1


def test_footprint_table(benchmark):
    report = benchmark(footprint_report)
    print()
    print("micro-diffusion footprint:")
    for key, value in report.items():
        print(f"   {key}: {value}")
    assert report["within_paper_budget"]


def test_default_state_within_paper_budget():
    assert state_bytes() <= MICRO_DATA_BYTES


def test_message_fits_small_radio_packets():
    """Paper Section 4.4: 'Several low-power radio designs have packet
    sizes as small as 30B' — the mote message must fit in one."""
    msg = MicroMessage(MicroMessageKind.DATA, tag=1, origin=2, seq=3,
                       payload=bytes(16))
    assert msg.nbytes <= 30


def test_micro_cache_and_gradients_static(benchmark):
    """Protocol engine work per message is bounded by the static tables;
    benchmark a flood step on a configured mote."""
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.001)
    mote = MicroDiffusionNode(sim, 0, net.add_node(0))
    msg = MicroMessage(MicroMessageKind.INTEREST, tag=1, origin=9, seq=1)

    counter = {"seq": 0}

    def process():
        counter["seq"] += 1
        incoming = MicroMessage(
            MicroMessageKind.INTEREST, tag=1, origin=9,
            seq=counter["seq"] & 0xFFFF,
        )
        mote._on_message(incoming, src=9, nbytes=incoming.nbytes)

    benchmark(process)
    assert len(mote.gradients) <= MAX_GRADIENTS
    assert len(mote.cache) <= CACHE_PACKETS
