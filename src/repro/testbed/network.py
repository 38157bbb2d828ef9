"""Network builders.

:class:`IdealNetwork` delivers messages between explicitly connected
nodes with a fixed hop delay and optional loss — no MAC, no collisions.
It isolates protocol logic for unit tests and analytical experiments.

:class:`SensorNetwork` assembles the full stack the testbed ran:
channel → modem → CSMA MAC → fragmentation → diffusion core, one per
node, plus a shared trace bus; its energy is each modem's airtime,
priced at its MAC's duty cycle.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
from repro.energy import EnergyBreakdown, radio_energy
from repro.link import FragmentationLayer, ReassemblyExpiry
from repro.mac import CsmaMac
from repro.radio import (
    Channel,
    DistancePropagation,
    Modem,
    RadioParams,
    Topology,
)
from repro.sim import SeedSequence, Simulator, TraceBus


class IdealTransport:
    """One node's attachment to an :class:`IdealNetwork`."""

    def __init__(self, network: "IdealNetwork", node_id: int) -> None:
        self.network = network
        self.node_id = node_id
        self.deliver_callback = None
        self.bytes_sent = 0
        self.messages_sent = 0

    def send_message(self, message, nbytes: int, link_dst: Optional[int] = None) -> None:
        self.bytes_sent += nbytes
        self.messages_sent += 1
        self.network._dispatch(self.node_id, message, nbytes, link_dst)


class IdealNetwork:
    """Lossless-by-default graph network with per-hop latency."""

    def __init__(
        self,
        sim: Simulator,
        delay: float = 0.01,
        loss: float = 0.0,
        seed: int = 1,
    ) -> None:
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be within [0, 1)")
        self.sim = sim
        self.delay = delay
        self.loss = loss
        self._rng = random.Random(seed)
        self._transports: Dict[int, IdealTransport] = {}
        self._links: Set[Tuple[int, int]] = set()

    def add_node(self, node_id: int) -> IdealTransport:
        if node_id in self._transports:
            raise ValueError(f"node {node_id} already exists")
        transport = IdealTransport(self, node_id)
        self._transports[node_id] = transport
        return transport

    def connect(self, a: int, b: int) -> None:
        """Link ``a`` and ``b`` both ways."""
        self._links.add((a, b))
        self._links.add((b, a))

    def disconnect(self, a: int, b: int) -> None:
        self._links.discard((a, b))
        self._links.discard((b, a))

    def neighbors_of(self, node_id: int) -> List[int]:
        return sorted(dst for src, dst in self._links if src == node_id)

    def _dispatch(self, src: int, message, nbytes: int, link_dst: Optional[int]) -> None:
        if link_dst is None:
            targets = self.neighbors_of(src)
        else:
            targets = [link_dst] if (src, link_dst) in self._links else []
        for dst in targets:
            if self.loss and self._rng.random() < self.loss:
                continue
            transport = self._transports.get(dst)
            if transport is None:
                continue
            self.sim.schedule(
                self.delay, self._deliver, transport, message, src, nbytes,
                name="ideal.deliver",
            )

    @staticmethod
    def _deliver(transport: IdealTransport, message, src: int, nbytes: int) -> None:
        if transport.deliver_callback is not None:
            transport.deliver_callback(message, src, nbytes)


def ideal_line(
    hops: int,
    config: Optional[DiffusionConfig] = None,
    loss: float = 0.0,
    seed: int = 1,
) -> Tuple[
    Simulator, IdealNetwork, Dict[int, DiffusionNode], Dict[int, DiffusionRouting]
]:
    """A lossless/lossy ideal-transport chain for protocol-logic work,
    at :class:`IdealNetwork`'s default per-hop delay."""
    sim = Simulator()
    net = IdealNetwork(sim, loss=loss, seed=seed)
    nodes: Dict[int, DiffusionNode] = {}
    apis: Dict[int, DiffusionRouting] = {}
    for i in range(hops + 1):
        transport = net.add_node(i)
        nodes[i] = DiffusionNode(sim, i, transport, config=config)
        apis[i] = DiffusionRouting(nodes[i])
    for i in range(hops):
        net.connect(i, i + 1)
    return sim, net, nodes, apis


class NodeStack:
    """All layers of one node in a :class:`SensorNetwork`."""

    def __init__(self, node_id, modem, mac, frag, diffusion, api):
        self.node_id = node_id
        self.modem = modem
        self.mac = mac
        self.frag = frag
        self.diffusion = diffusion
        self.api = api

    def radio_energy(self, elapsed: float) -> EnergyBreakdown:
        """This node's radio time over ``elapsed`` seconds, priced."""
        modem = self.modem
        return radio_energy(
            modem.airtime_sent, modem.airtime_received,
            self.mac.duty_cycle, elapsed,
        )


class SensorNetwork:
    """The full simulated testbed: radios, MACs, fragmentation, diffusion."""

    def __init__(
        self,
        topology: Topology,
        config: Optional[DiffusionConfig] = None,
        seed: int = 1,
        propagation=None,
        channel_cls: type = Channel,
        nodes: Optional[Iterable[int]] = None,
    ) -> None:
        self.topology = topology
        self.config = config or DiffusionConfig()
        self.seed = seed
        self.sim = Simulator()
        self.trace = TraceBus()
        self.seeds = SeedSequence(seed)
        self.propagation = propagation or DistancePropagation(topology, seed=seed)
        # channel_cls: the equivalence suite passes ReferenceChannel to
        # hold Channel to the O(N) scan over the same network.
        self.channel = channel_cls(
            self.sim, self.propagation, seeds=self.seeds, trace=self.trace
        )
        # One reassembly-timeout FIFO for every node: partials then
        # expire in the order they were opened, across the network.
        self.reassembly = ReassemblyExpiry(self.sim)
        self.stacks: Dict[int, NodeStack] = {}
        # nodes: build stacks for this subset only (a shard builds just
        # its owned nodes against the full topology).  Per-node RNG
        # streams are derived by label, not drawn in sequence, so a
        # subset build consumes exactly the streams the same nodes
        # would consume in a whole-network build.
        build_ids = (
            topology.node_ids() if nodes is None else sorted(nodes)
        )
        for node_id in build_ids:
            if not topology.has_node(node_id):
                raise ValueError(f"node {node_id} is not in the topology")
            self._build_node(node_id)

    def _build_node(self, node_id: int) -> None:
        modem = Modem(self.sim, self.channel, node_id)
        mac = CsmaMac(
            self.sim, modem, rng=self.seeds.stream(f"mac:{node_id}"),
            trace=self.trace,
        )
        frag = FragmentationLayer(
            self.sim, mac, node_id,
            fragment_payload=RadioParams.fragment_payload,
            trace=self.trace, expiry=self.reassembly,
        )
        # The jitter stream is seeded on the node's first draw, which
        # most nodes of a large run never make.
        diffusion = DiffusionNode(
            self.sim,
            node_id,
            transport=frag,
            config=self.config,
            trace=self.trace,
            rng=partial(self.seeds.stream, f"diffusion:{node_id}"),
        )
        api = DiffusionRouting(diffusion)
        self.stacks[node_id] = NodeStack(
            node_id, modem, mac, frag, diffusion, api
        )

    # -- access ---------------------------------------------------------------

    def api(self, node_id: int) -> DiffusionRouting:
        return self.stacks[node_id].api

    def node(self, node_id: int) -> DiffusionNode:
        return self.stacks[node_id].diffusion

    def stack(self, node_id: int) -> NodeStack:
        return self.stacks[node_id]

    def node_ids(self) -> List[int]:
        return sorted(self.stacks)

    # -- control -----------------------------------------------------------------

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def fail_node(self, node_id: int) -> None:
        """Simulate node death: stop its timers and silence its radio.

        The modem is detached from the channel, so the dead node drops
        out of every audibility and carrier-sense set instead of being
        re-scanned on each fragment; queued MAC traffic is discarded (a
        dead node neither receives nor keeps transmitting).  A fragment
        already on the air finishes — the signal left the antenna.
        """
        stack = self.stacks[node_id]
        stack.diffusion.shutdown()
        stack.modem.receive_callback = None
        stack.mac.enqueue = lambda *args, **kwargs: False
        stack.mac._queue.clear()
        self.channel.detach(node_id)

    def resurrect_node(self, node_id: int, clear_state: bool = True) -> None:
        """Bring a failed node back.

        With ``clear_state`` (the default) the node power-cycles: its
        gradients, duplicate cache, and partial reassembly buffers are
        wiped, and its applications re-flood their interests — repair
        then depends on protocol traffic, which is the paper's recovery
        story.  With ``clear_state=False`` only the radio re-attaches
        and pre-crash soft state survives (the legacy recovery model,
        useful for modelling a brief radio outage rather than a reboot).
        """
        stack = self.stacks[node_id]
        self.channel.attach(stack.modem)
        stack.modem.receive_callback = stack.frag.on_fragment
        # fail_node shadowed enqueue with an instance attribute; removing
        # the shadow restores the class implementation.
        stack.mac.__dict__.pop("enqueue", None)
        if clear_state:
            stack.frag.reset()
            stack.diffusion.reboot()

    # -- measurement ----------------------------------------------------------------

    def total_diffusion_bytes_sent(self) -> int:
        """Bytes handed to the radio by all diffusion modules — the
        quantity Figure 8 reports."""
        return sum(s.diffusion.stats.bytes_sent for s in self.stacks.values())

    def total_diffusion_messages_sent(self) -> int:
        return sum(s.diffusion.stats.messages_sent for s in self.stacks.values())

    def total_radio_bytes_sent(self) -> int:
        return sum(s.modem.bytes_sent for s in self.stacks.values())

    def radio_energy(self, elapsed: float) -> EnergyBreakdown:
        """Every stack's priced radio time, summed in build order."""
        listen = receive = send = 0.0
        for stack in self.stacks.values():
            b = stack.radio_energy(elapsed)
            listen += b.listen
            receive += b.receive
            send += b.send
        return EnergyBreakdown(listen=listen, receive=receive, send=send)
