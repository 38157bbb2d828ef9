"""Capstone integration: a multi-application sensor network.

The paper's abstract claims "the first description of the software
architecture that supports named data and in-network processing in an
operational, multi-application sensor-network".  This test runs two
applications *concurrently* on one simulated ISI testbed — surveillance
with aggregation and a bulk transfer — and verifies each functions
while sharing the same radios, MACs, and diffusion cores.
"""

import pytest

from repro.apps import SurveillanceExperiment
from repro.testbed import FIG8_SINK, FIG8_SOURCES, isi_testbed_network
from repro.transfer import BlockReceiver, BlockSender, split_object

DURATION = 600.0


@pytest.fixture(scope="module")
def multi_app_run():
    net = isi_testbed_network(seed=55)

    # App 1: Figure 8 surveillance with suppression filters everywhere.
    surveillance = SurveillanceExperiment(
        net, FIG8_SINK, FIG8_SOURCES[:2], suppression=True
    )

    # App 2: a bulk object transfer across the building.
    payload = bytes((i * 13 + 5) % 256 for i in range(1024))
    transfer_obj = split_object("snapshot", payload)
    transfers = []
    receiver = BlockReceiver(
        net.api(17), "snapshot",
        on_complete=lambda data, stats: transfers.append((data, stats)),
        quiet_timeout=8.0,
        max_repair_rounds=25,
    )
    sender = BlockSender(net.api(22), block_interval=1.0)
    net.sim.schedule(30.0, sender.offer, transfer_obj, 0.0)

    result = surveillance.run(duration=DURATION)
    return {
        "net": net,
        "surveillance": result,
        "transfers": transfers,
        "payload": payload,
        "receiver": receiver,
    }


def test_surveillance_still_functions(multi_app_run):
    result = multi_app_run["surveillance"]
    # Sharing the network with another application costs delivery
    # (collisions roughly double), but the application keeps working.
    assert result.delivery_ratio >= 0.2
    assert result.distinct_events_received >= 20


def test_bulk_transfer_completes(multi_app_run):
    transfers = multi_app_run["transfers"]
    assert transfers, (
        f"transfer incomplete; missing "
        f"{multi_app_run['receiver'].missing_blocks()}"
    )
    data, stats = transfers[0]
    assert data == multi_app_run["payload"]


def test_applications_share_one_radio_network(multi_app_run):
    """All traffic really went through the same stacks: the channel's
    fragment counters cover everything both applications sent."""
    net = multi_app_run["net"]
    assert net.channel.fragments_sent > 1000
    assert net.total_diffusion_messages_sent() > 500
