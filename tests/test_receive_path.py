"""The shape of the receive path: which Python frames a delivered
fragment passes through on its way from the channel's verdict loop to
the diffusion core.

Every frame on this path runs once per delivered fragment, the
simulator's most frequent unit of work, so a new relay or wrapper
between the layers shows up here first.  The names the perf tracer
(``perf/spans.py``) wraps — ``Modem.deliver`` and
``FragmentationLayer.on_fragment`` among them — must stay on the path
and be reached through their classes, or the per-layer rows stop
seeing the calls.
"""

import sys

from repro.core.messages import make_interest
from repro.link.frag import FragmentationLayer
from repro.naming import AttributeVector
from repro.radio.topology import Topology
from repro.testbed.network import SensorNetwork

#: Python frames entered between the verdict loop and the core's upcall
#: for a single-fragment message on a lossless link.
SHIPPED_PATH = [
    "splitmix64",
    "Modem.deliver",
    "FragmentationLayer.on_fragment",
    "FragmentationLayer._deliver",
]


def two_node_line():
    network = SensorNetwork(Topology.line(2, spacing=1.0), seed=1)
    return network, network.stack(0), network.stack(1)


def frames_between(network, send):
    """Qualified names of the Python frames entered after
    ``Channel._finish_transmission`` and before
    ``DiffusionNode._on_network_message``, with ``send`` run first."""
    entered, recording, reached = [], [False], [False]

    def profile(frame, event, arg):
        if event != "call" or reached[0]:
            return
        name = frame.f_code.co_qualname
        if name == "Channel._finish_transmission":
            recording[0] = True
        elif name == "DiffusionNode._on_network_message" and recording[0]:
            reached[0] = True
        elif recording[0]:
            entered.append(name)

    send()
    sys.setprofile(profile)
    try:
        network.run(until=1.0)
    finally:
        sys.setprofile(None)
    assert reached[0], "the fragment never reached the diffusion core"
    return entered


def test_a_delivered_fragment_enters_only_the_shipped_frames():
    network, sender, _ = two_node_line()
    message = make_interest(AttributeVector(), origin=0)

    def send():
        assert sender.frag.send_message(message, 20) == 1

    assert frames_between(network, send) == SHIPPED_PATH


def test_the_receive_callback_is_the_link_layer_method():
    """Bound from the class attribute, so a wrapper installed on the
    class before the network is built (as the span tracer does) sits on
    the path."""
    _, _, receiver = two_node_line()
    callback = receiver.modem.receive_callback
    assert callback.__self__ is receiver.frag
    assert callback.__func__ is FragmentationLayer.__dict__["on_fragment"]
