#!/usr/bin/env python3
"""Quickstart: the Figure 1 life cycle of a directed-diffusion query.

Builds the registry's ``line`` preset with five nodes — the same run as
``python -m repro run line -p nodes=5`` — and steps its clock through
the three phases of the paper's Figure 1:

  (a) interest propagation,
  (b) gradient setup,
  (c) data delivery along the reinforced path,

printing what the network state looks like after each.

Run:  python examples/quickstart.py
"""

from repro import MessageType
from repro.shard import ShardPlan, build_whole


def main() -> None:
    # Five nodes in a line, 15 m apart; node 0 is the sink (user), node
    # 4 the source, which sends one datum every 5 s from t=3 s.
    plan = ShardPlan.named("line", {"nodes": 5}, seed=7)
    run = build_whole(plan)
    net = run.network

    # --- phase (a)+(b): the interest floods and sets up gradients -----
    run.sim.run(until=2.0)
    print("after interest propagation (t=2s):")
    for node_id in net.node_ids():
        entries = net.node(node_id).gradients.entries()
        neighbors = []
        if entries:
            neighbors = entries[0].active_gradient_neighbors(run.sim.now)
        print(f"  node {node_id}: gradients toward {neighbors}")

    # --- phase (c): reinforced delivery --------------------------------
    run.sim.run(until=plan.duration)
    outcome = run.outcome()
    print(f"\nafter data delivery (t={plan.duration:g}s):")
    print(f"  events delivered at sink: {outcome['app_delivered']}")
    for when in outcome["delivery_times"][:3]:
        print(f"    t={when:6.2f}s")
    print("\nper-node transmissions by message class:")
    for node_id in net.node_ids():
        stats = net.node(node_id).stats
        row = ", ".join(
            f"{t.name.lower()}={stats.messages_by_type[t]}"
            for t in MessageType
            if stats.messages_by_type[t]
        )
        print(f"  node {node_id}: {row or 'silent'}")
    print(
        "\nNote how after the first exploratory message the relays carry "
        "plain DATA unicast on the reinforced path — Figure 1(c)."
    )


if __name__ == "__main__":
    main()
