"""Tiered deployment: bridging micro-diffusion to full diffusion.

"The logical header format is compatible with that of the full
diffusion implementation and we are implementing software to gateway
between the implementations" — this module is that gateway.  A
:class:`TagRegistry` (pre-deployed, like attribute keys) maps 16-bit
tags to attribute vectors; a :class:`MicroGateway` runs on a node with
both stacks, translating interests downward into the mote tier and data
upward into the full tier.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.api import DiffusionRouting
from repro.micro.microdiffusion import MicroDiffusionNode, MicroMessage
from repro.naming import Attribute, AttributeVector, Operator, one_way_match
from repro.naming.keys import ClassValue, Key


class TagRegistry:
    """Out-of-band agreed mapping between tags and attribute templates.

    Each tag carries two templates:

    * ``interest_attrs`` — the full-diffusion subscription this tag
      stands for (formals, e.g. ``type EQ photo``);
    * ``data_attrs`` — the actuals published for mote data of this tag.

    A tag may also be registered as a *command* tag
    (:meth:`register_command`): full-tier data matching its template is
    bridged **down** into the mote tier — "second-tier nodes will be
    controlled ... from these more capable nodes" (Section 4.3).
    """

    def __init__(self) -> None:
        self._interest: Dict[int, AttributeVector] = {}
        self._data: Dict[int, AttributeVector] = {}
        self._command: Dict[int, AttributeVector] = {}

    def register(
        self,
        tag: int,
        interest_attrs: AttributeVector,
        data_attrs: AttributeVector,
    ) -> None:
        if tag in self._interest:
            raise ValueError(f"tag {tag} already registered")
        self._interest[tag] = interest_attrs
        self._data[tag] = data_attrs

    def register_command(
        self, tag: int, command_attrs: AttributeVector
    ) -> None:
        """Declare a downward command tag.

        ``command_attrs`` are the formals a full-tier command message's
        actuals must satisfy for it to be forwarded to the motes.
        """
        if tag in self._command:
            raise ValueError(f"command tag {tag} already registered")
        self._command[tag] = command_attrs

    def command_tag_for(self, attrs: AttributeVector) -> Optional[int]:
        for tag, formals in self._command.items():
            if one_way_match(list(formals), list(attrs)):
                return tag
        return None

    def command_tags(self):
        return sorted(self._command)

    def interest_attrs(self, tag: int) -> Optional[AttributeVector]:
        return self._interest.get(tag)

    def data_attrs(self, tag: int) -> Optional[AttributeVector]:
        return self._data.get(tag)

    def tag_for_interest(self, attrs: AttributeVector) -> Optional[int]:
        """Find the tag whose data would satisfy this interest."""
        for tag, data_attrs in self._data.items():
            if one_way_match(list(attrs), list(data_attrs)):
                return tag
        return None

    def tags(self):
        return sorted(self._interest)


class MicroGateway:
    """Runs on a dual-stack node at the tier boundary.

    Downward: full-diffusion interests whose formals are satisfied by a
    registered tag's data template become micro-interest floods in the
    mote tier.  Upward: mote data arriving for a subscribed tag is
    published into full diffusion under the tag's data template.
    """

    def __init__(
        self,
        api: DiffusionRouting,
        micro: MicroDiffusionNode,
        registry: TagRegistry,
    ) -> None:
        self.api = api
        self.micro = micro
        self.registry = registry
        self.interests_bridged = 0
        self.data_bridged = 0
        self._bridged_tags: set = set()
        self._publications: Dict[int, object] = {}
        # A transparent filter sees every interest crossing this node
        # (filters match one-way, so a catch-all works — a subscription
        # could not see arbitrary interests under two-way matching).
        watch = (
            AttributeVector.builder()
            .eq(Key.CLASS, int(ClassValue.INTEREST))
            .build()
        )
        self._filter_handle = api.add_filter(
            watch, priority=150, callback=self._on_full_interest, name="gateway"
        )
        # Downward command path: subscribe on the full tier for every
        # registered command tag and replay matching data to the motes.
        self.commands_bridged = 0
        for tag in registry.command_tags():
            api.subscribe(
                registry._command[tag],
                lambda attrs, message, tag=tag: self._on_full_command(tag, attrs),
            )

    # -- downward: full -> micro --------------------------------------------

    def _on_full_interest(self, message, handle) -> None:
        tag = self.registry.tag_for_interest(message.attrs)
        if tag is not None and tag not in self._bridged_tags:
            self._bridged_tags.add(tag)
            self.interests_bridged += 1
            self.micro.subscribe(tag, self._on_micro_data)
        # Transparent: normal diffusion processing continues.
        self.api.send_message(message, handle)

    # -- downward: full -> micro (commands) --------------------------------

    def _on_full_command(self, tag: int, attrs: AttributeVector) -> None:
        payload = attrs.value_of(Key.PAYLOAD)
        if not isinstance(payload, bytes):
            payload = b""
        self.commands_bridged += 1
        self.micro.send(tag, payload)

    # -- upward: micro -> full --------------------------------------------------

    def _on_micro_data(self, message: MicroMessage) -> None:
        data_attrs = self.registry.data_attrs(message.tag)
        if data_attrs is None:
            return
        publication = self._publications.get(message.tag)
        if publication is None:
            publication = self.api.publish(data_attrs)
            self._publications[message.tag] = publication
        send_attrs = (
            AttributeVector.builder()
            .actual(Key.SEQUENCE, message.seq)
            .actual(Key.INSTANCE, f"mote-{message.origin}")
            .build()
        )
        if message.payload:
            send_attrs = send_attrs.with_attribute(
                Attribute.blob(Key.PAYLOAD, Operator.IS, message.payload)
            )
        self.data_bridged += 1
        self.api.send(publication, send_attrs)


#: the tag of the tiered trial's photo samples.
PHOTO_TAG = 7


def tiered_trial() -> Dict[str, int]:
    """The tiered architecture on ideal links: a user and a gateway on
    the full tier, four motes chained behind the gateway; the far mote
    sends twenty photo samples, one every 0.5 s, and the user subscribes
    on the full tier only, so its interest must bridge down and the data
    up."""
    from repro.core import DiffusionConfig, DiffusionNode
    from repro.sim import Simulator
    from repro.testbed import IdealNetwork

    sim = Simulator()
    full_net = IdealNetwork(sim, delay=0.02)
    user, gateway_api = [
        DiffusionRouting(DiffusionNode(
            sim, node_id, full_net.add_node(node_id), config=DiffusionConfig()
        ))
        for node_id in (100, 101)
    ]
    full_net.connect(100, 101)
    mote_net = IdealNetwork(sim, delay=0.01)
    gateway_micro = MicroDiffusionNode(sim, 101, mote_net.add_node(101))
    motes = {}
    previous = 101
    for mote_id in range(1, 5):
        motes[mote_id] = MicroDiffusionNode(
            sim, mote_id, mote_net.add_node(mote_id)
        )
        mote_net.connect(previous, mote_id)
        previous = mote_id
    registry = TagRegistry()
    registry.register(
        PHOTO_TAG,
        interest_attrs=AttributeVector.builder().eq(Key.TYPE, "photo").build(),
        data_attrs=AttributeVector.builder().actual(Key.TYPE, "photo").build(),
    )
    gateway = MicroGateway(gateway_api, gateway_micro, registry)
    received = []
    user.subscribe(
        AttributeVector.builder().eq(Key.TYPE, "photo").build(),
        lambda attrs, msg: received.append(attrs),
    )
    for i in range(20):
        sim.schedule(2.0 + i * 0.5, motes[4].send, PHOTO_TAG, bytes([i]))
    sim.run(until=60.0)
    return {
        "delivered": len(received),
        "interests_bridged": gateway.interests_bridged,
        "data_bridged": gateway.data_bridged,
    }
