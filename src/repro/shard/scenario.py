"""Deterministic scenarios the sharded kernel can run and verify.

A shard scenario is a recipe every worker evaluates independently: the
*same* topology and move schedule on every shard (geometry is global —
a foreign node's movement changes what an owned node hears), but node
stacks, traffic sources, and sinks built only for the shard's *owned*
subset.  Per-node RNG streams are derived by label
(:class:`~repro.sim.rng.SeedSequence`), so a subset build consumes
exactly the streams those nodes would consume in a whole-network build
— which is what makes the single-queue oracle and the sharded runs
comparable event-for-event.

Scenarios always build their channels with ``loss_mode="hashed"``: the
default stream mode draws loss uniforms in global finalization order,
which no partitioned execution can reproduce, while hashed draws are a
pure function of (seed, src, dst, airtime start).

The ``outcome`` of a run is a plain dict designed to merge across
shards (ints/floats sum, lists concatenate, dicts recurse — see
:func:`repro.shard.runner.merge_outcomes`) and to compare exactly
against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import DiffusionConfig
from repro.mac import CsmaMac
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio import Channel, DistancePropagation, Modem, Topology
from repro.sim import SeedSequence, Simulator
from repro.testbed import SensorNetwork

#: (time, node, new_x, new_y) — one topology move.
Move = Tuple[float, int, float, float]


@dataclass
class ShardNet:
    """Everything the shard runtime needs from one built scenario."""

    sim: Simulator
    channel: Channel
    propagation: Any
    topology: Topology
    macs: Dict[int, CsmaMac]
    outcome: Callable[[], Dict[str, Any]]
    extra: Dict[str, Any] = field(default_factory=dict)


class Scenario:
    """One deterministic workload, buildable whole or per shard."""

    name = "?"

    def topology(self, params: Dict[str, Any]) -> Topology:
        raise NotImplementedError

    def move_schedule(
        self, params: Dict[str, Any], topology: Topology
    ) -> List[Move]:
        """Mobility, identical on every shard; default static."""
        return []

    def build(
        self,
        topology: Topology,
        owned: List[int],
        params: Dict[str, Any],
        seed: int,
    ) -> ShardNet:
        raise NotImplementedError


def _channel_outcome(channel: Channel) -> Dict[str, int]:
    return {
        "sent": channel.fragments_sent,
        "delivered": channel.fragments_delivered,
        "collided": channel.fragments_collided,
        "lost": channel.fragments_lost,
    }


class FloodScenario(Scenario):
    """Every node beacons through its CSMA MAC; no upper layers.

    The densest channel workload per simulated second, and the purest
    test of cross-shard physics: almost every fragment near a cut must
    collide, capture, and carrier-block identically on both sides.
    """

    name = "flood"

    def topology(self, params: Dict[str, Any]) -> Topology:
        return Topology.grid(
            int(params.get("columns", 10)),
            int(params.get("rows", 5)),
            spacing=float(params.get("spacing", 26.0)),
        )

    def build(self, topology, owned, params, seed) -> ShardNet:
        interval = float(params.get("interval", 0.5))
        sim = Simulator()
        seeds = SeedSequence(seed)
        propagation = DistancePropagation(topology, seed=seed)
        channel = Channel(
            sim, propagation, seeds=seeds, loss_mode="hashed"
        )
        heard = [0]

        def on_receive(payload, src, nbytes, link_dst):
            heard[0] += 1

        macs: Dict[int, CsmaMac] = {}
        for node_id in owned:
            modem = Modem(sim, channel, node_id)
            modem.receive_callback = on_receive
            macs[node_id] = CsmaMac(
                sim, modem, rng=seeds.stream(f"mac:{node_id}")
            )

        def beacon_tick(node_id, rng):
            macs[node_id].enqueue(("beacon", node_id), 27)
            sim.schedule(
                interval * (0.5 + rng.random()), beacon_tick, node_id, rng,
                name="beacon",
            )

        for node_id in owned:
            rng = seeds.stream(f"beacon:{node_id}")
            sim.schedule(
                rng.random() * interval, beacon_tick, node_id, rng,
                name="beacon",
            )

        def outcome() -> Dict[str, Any]:
            result = _channel_outcome(channel)
            result["heard"] = heard[0]
            return result

        return ShardNet(sim, channel, propagation, topology, macs, outcome)


class MobilityFloodScenario(FloodScenario):
    """Flood plus nodes marching across the middle of the deployment.

    The movers cross the natural shard cut mid-run, so boundary sets,
    frontier membership, and audibility all churn — the scenario the
    epoch-invalidation machinery exists for.
    """

    name = "mobility"

    def move_schedule(self, params, topology) -> List[Move]:
        columns = int(params.get("columns", 10))
        rows = int(params.get("rows", 5))
        spacing = float(params.get("spacing", 26.0))
        movers = int(params.get("movers", 2))
        steps = int(params.get("move_steps", 4))
        start = float(params.get("move_start", 5.0))
        step_dt = float(params.get("move_interval", 3.0))
        moves: List[Move] = []
        # Leftmost-column nodes walk east across the whole deployment,
        # one column per step past the midline.
        ids = topology.node_ids()
        for m in range(min(movers, rows)):
            node = ids[m * columns]  # column 0 of row m
            y = topology.position(node).y
            for s in range(1, steps + 1):
                x = spacing * (columns - 1) * s / steps
                moves.append((start + (s - 1) * step_dt + m * 0.7, node, x, y))
        return moves


#: compressed diffusion timers so a short run exercises interest
#: flooding, reinforcement, and steady-state forwarding.
DIFFUSION_CONFIG = DiffusionConfig(
    interest_interval=8.0,
    interest_jitter=0.3,
    exploratory_interval=8.0,
    gradient_timeout=25.0,
    reinforced_timeout=20.0,
)


class DiffusionScenario(Scenario):
    """Full stack: corner sources stream to a corner sink.

    The multihop path crosses every shard cut, so application delivery
    depends on ghost fragments carrying real payloads across shards and
    being reassembled and routed on the far side.
    """

    name = "diffusion"

    def topology(self, params: Dict[str, Any]) -> Topology:
        return Topology.grid(
            int(params.get("columns", 10)),
            int(params.get("rows", 5)),
            spacing=float(params.get("spacing", 18.0)),
        )

    def _pairs(
        self, params: Dict[str, Any], topology: Topology
    ) -> List[Tuple[int, int, str]]:
        """(source, sink, tag) workload triples."""
        columns = int(params.get("columns", 10))
        rows = int(params.get("rows", 5))
        n = columns * rows
        return [
            (n - 1, 0, "diffbench"),
            (columns - 1, 0, "diffbench"),
        ]

    def build(self, topology, owned, params, seed) -> ShardNet:
        duration = float(params.get("duration", 30.0))
        send_interval = float(params.get("send_interval", 0.5))
        owned_set = set(owned)
        net = SensorNetwork(
            topology,
            config=DIFFUSION_CONFIG,
            seed=seed,
            loss_mode="hashed",
            nodes=owned,
        )
        delivered: List[float] = []
        for source, sink, tag in self._pairs(params, topology):
            if sink in owned_set:
                sub = (
                    AttributeVector.builder().eq(Key.TYPE, tag).build()
                )
                net.api(sink).subscribe(
                    sub,
                    lambda attrs, msg: delivered.append(net.sim.now),
                )
            if source in owned_set:
                pub = net.api(source).publish(
                    AttributeVector.builder().actual(Key.TYPE, tag).build()
                )
                sends = int((duration - 2.0) / send_interval)
                for i in range(sends):
                    net.sim.schedule(
                        2.0 + i * send_interval,
                        net.api(source).send,
                        pub,
                        AttributeVector.builder()
                        .actual(Key.SEQUENCE, i)
                        .build(),
                    )

        def outcome() -> Dict[str, Any]:
            return {
                "channel": _channel_outcome(net.channel),
                "app_delivered": len(delivered),
                "delivery_times": sorted(delivered),
                "diffusion_messages": net.total_diffusion_messages_sent(),
            }

        return ShardNet(
            net.sim, net.channel, net.propagation, topology,
            {nid: net.stack(nid).mac for nid in owned}, outcome,
            extra={"network": net},
        )


class RegionalDiffusionScenario(DiffusionScenario):
    """Scattered local source→sink pairs: the scale workload.

    Each pair lives inside one region of the grid a few hops across, so
    traffic is everywhere but mostly local — the deployment shape the
    paper argues sensor networks take (many concurrent local tasks),
    and the one where a spatial cut pays: each shard carries its own
    regions' load and only region-straddling paths cross the cut.
    """

    name = "regional"

    def _pairs(self, params, topology) -> List[Tuple[int, int, str]]:
        columns = int(params.get("columns", 32))
        rows = int(params.get("rows", 32))
        region = int(params.get("region", 8))
        pairs: List[Tuple[int, int, str]] = []
        k = 0
        for base_row in range(0, rows - region + 1, region):
            for base_col in range(0, columns - region + 1, region):
                # Source near one region corner, sink a few hops away
                # toward the opposite corner.
                src = (base_row + 1) * columns + (base_col + 1)
                dst = (base_row + region - 2) * columns + (
                    base_col + region - 2
                )
                pairs.append((src, dst, f"region{k}"))
                k += 1
        return pairs


class HierarchyScenario(RegionalDiffusionScenario):
    """The regional workload under a selectable propagation mode.

    ``params["mode"]`` picks flat / clustered / rendezvous;
    ``params["hierarchy"]`` carries :class:`~repro.hierarchy.
    HierarchyParams` overrides.  Flat mode installs nothing, so its
    outcome is bit-identical to :class:`RegionalDiffusionScenario` on
    the same params — the equivalence gate the hierarchy CI relies on.
    The outcome adds per-message-class traffic and hierarchy counters,
    all merge-friendly (ints sum, nested dicts recurse).
    """

    name = "hierarchy"

    def build(self, topology, owned, params, seed) -> ShardNet:
        from repro.core.node import MESSAGE_CLASS_LABELS
        from repro.hierarchy import install_hierarchy

        shardnet = super().build(topology, owned, params, seed)
        net = shardnet.extra["network"]
        mode = str(params.get("mode", "flat"))
        runtime = install_hierarchy(
            net, mode=mode, params=params.get("hierarchy")
        )
        shardnet.extra["hierarchy"] = runtime
        base_outcome = shardnet.outcome

        def outcome() -> Dict[str, Any]:
            result = base_outcome()
            by_class_msgs: Dict[str, int] = {}
            by_class_bytes: Dict[str, int] = {}
            for nid in net.node_ids():
                stats = net.node(nid).stats
                for msg_type, label in MESSAGE_CLASS_LABELS.items():
                    by_class_msgs[label] = (
                        by_class_msgs.get(label, 0)
                        + stats.messages_by_type[msg_type]
                    )
                    by_class_bytes[label] = (
                        by_class_bytes.get(label, 0)
                        + stats.bytes_by_type[msg_type]
                    )
            result["messages_by_class"] = by_class_msgs
            result["bytes_by_class"] = by_class_bytes
            result["hierarchy"] = runtime.counters()
            return result

        shardnet.outcome = outcome
        return shardnet


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        FloodScenario(),
        MobilityFloodScenario(),
        DiffusionScenario(),
        RegionalDiffusionScenario(),
        HierarchyScenario(),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown shard scenario {name!r}; have {sorted(SCENARIOS)}"
        ) from None
