"""repro — a reproduction of "Building Efficient Wireless Sensor
Networks with Low-Level Naming" (Heidemann et al., SOSP 2001).

The package implements the paper's full software architecture:

* attribute-based naming with one-way/two-way matching
  (:mod:`repro.naming`);
* directed diffusion — interests, gradients, exploratory data,
  reinforcement — with the publish/subscribe and filter APIs
  (:mod:`repro.core`);
* in-network processing filters: aggregation/suppression, counting
  aggregation, GEAR-style geographic pruning
  (:mod:`repro.filters`);
* micro-diffusion and the tiered gateway (:mod:`repro.micro`);
* the simulated substrate standing in for the PC/104 testbed: event
  kernel, radio channel, CSMA MAC, fragmentation, energy model
  (:mod:`repro.sim`, :mod:`repro.radio`, :mod:`repro.mac`,
  :mod:`repro.link`, :mod:`repro.energy`);
* the ISI 14-node testbed and experiment harnesses regenerating every
  figure of the evaluation (:mod:`repro.testbed`,
  :mod:`repro.experiments`, :mod:`repro.analysis`).

Quickstart::

    from repro import AttributeVector, Key
    from repro.testbed import SensorNetwork
    from repro.radio import Topology

    net = SensorNetwork(Topology.line(5, spacing=15.0))
    sink, source = net.api(0), net.api(4)
    sub = AttributeVector.builder().eq(Key.TYPE, "light").build()
    sink.subscribe(sub, lambda attrs, msg: print("got", attrs))
    pub = source.publish(
        AttributeVector.builder().actual(Key.TYPE, "light").build())
    net.sim.schedule(1.0, source.send, pub,
                     AttributeVector.builder().actual(Key.SEQUENCE, 0).build())
    net.run(until=10.0)
"""

from repro.naming import (
    Attribute,
    AttributeVector,
    Operator,
    ValueType,
    one_way_match,
    two_way_match,
)
from repro.naming.keys import ClassValue, Key
from repro.core import (
    DiffusionConfig,
    DiffusionNode,
    DiffusionRouting,
    Message,
    MessageType,
)

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "AttributeVector",
    "Operator",
    "ValueType",
    "one_way_match",
    "two_way_match",
    "Key",
    "ClassValue",
    "DiffusionConfig",
    "DiffusionNode",
    "DiffusionRouting",
    "Message",
    "MessageType",
    "__version__",
]
