"""The metric catalogue: names, units, directions, and which end-to-end
metric each per-layer metric is expected to move, on which workload —
written down before anything is measured, so a later claim can be held
against it.  ``run.py --list`` prints it; ``BENCHMARK.json`` carries the
same names (``test_perf_harness.py`` holds the two equal).

This is a discrete-event simulator, so every number is either **host**
time/memory (what the simulator costs to run; noisy, compared within a
bound; times are calibrated against the host's speed, see child.py) or
**simulated** (what the modelled network did; a pure function
of the seed, compared exactly).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional


class EndToEnd(NamedTuple):
    name: str
    unit: str           # cost_per_delivery's unit is per workload
    better: str
    kind: str           # "host" (bounded) or "simulated" (exact)
    what: str


END_TO_END = (
    EndToEnd("wall_s", "s", "lower", "host",
             "calibrated host seconds of the run phase (first kernel event "
             "to outcome), median of the rounds"),
    EndToEnd("cpu_s", "s", "lower", "host",
             "calibrated host user+sys CPU seconds of the run phase, shard "
             "workers included, median of the rounds"),
    EndToEnd("peak_rss_mb", "MiB", "lower", "host",
             "peak resident set of the largest process of a round, median"),
    EndToEnd("setup_s", "s", "lower", "host",
             "calibrated host seconds from interpreter start to the first "
             "kernel event, median of six fresh interpreters"),
    EndToEnd("delivery_ratio", "ratio", "higher", "simulated",
             "delivered / offered"),
    EndToEnd("cost_per_delivery", "per-workload", "lower", "simulated",
             "traffic spent per delivery"),
    EndToEnd("paper_error", "ratio", "lower", "simulated",
             "isi_fig8 only: |4-source suppression saving - 0.42|"),
    EndToEnd("failed_share", "ratio", "lower", "simulated",
             "failed output checks / checks attempted"),
)

#: setup_s moves by tens of milliseconds between identical runs; below
#: this absolute difference compare.py never calls it a regression.
SETUP_ABS_SLACK_S = 0.05


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str          # the end-to-end metric and workload it should move


_TIME = "wall_s/cpu_s"
PER_LAYER = (
    PerLayer("sim.self_s", "s", "lower", f"{_TIME} everywhere; largest share on isi_fig8, flood_1k"),
    PerLayer("sim.events", "count", "lower", f"{_TIME} everywhere"),
    PerLayer("sim.events_per_s", "1/s", "higher", f"{_TIME} everywhere (a layer metric on purpose: removing events must not read as a slowdown)"),
    PerLayer("sim.max_queue_depth", "count", "lower", "wall_s, peak_rss_mb on flood_1k, regional_1k"),
    PerLayer("sim.cancelled_events", "count", "lower", "wall_s on isi_fig8, dtn_grid"),
    PerLayer("radio.self_s", "s", "lower", "wall_s on flood_1k, regional_1k; no change on isi_fig8"),
    PerLayer("radio.calls", "count", "lower", "wall_s on flood_1k, regional_1k"),
    PerLayer("radio.fragments_sent", "count", "lower", "wall_s on flood_1k, regional_1k"),
    PerLayer("radio.useful_ratio", "ratio", "higher", "delivery_ratio on flood_1k, regional_1k"),
    PerLayer("radio.carrier_checks_per_query", "count", "lower", "wall_s on flood_1k, regional_1k"),
    PerLayer("radio.memo_hit_rate", "ratio", "higher", "wall_s on flood_1k, regional_1k"),
    PerLayer("radio.index_rebuilds", "count", "lower", "wall_s on flood_1k_mobile only"),
    PerLayer("radio.vectorized_wall_ratio", "ratio", "lower", "wall_s on flood_1k, regional_1k: decides ROADMAP's radio-collapse item"),
    PerLayer("mac.self_s", "s", "lower", "wall_s on flood_1k, flood_1k_mobile"),
    PerLayer("mac.calls", "count", "lower", "wall_s on flood_1k, flood_1k_mobile"),
    PerLayer("mac.enqueued", "count", "lower", "wall_s on flood_1k, flood_1k_mobile"),
    PerLayer("mac.backoffs", "count", "lower", "wall_s on flood_1k, flood_1k_mobile"),
    PerLayer("mac.queue_drops", "count", "lower", "delivery_ratio on regional_1k"),
    PerLayer("mac.queue_depth_p95", "count", "lower", "delivery_ratio on regional_1k"),
    PerLayer("link.self_s", "s", "lower", "wall_s on regional_1k, isi_fig8; zero on flood_*"),
    PerLayer("link.calls", "count", "lower", "wall_s on regional_1k, isi_fig8; zero on flood_*"),
    PerLayer("link.messages_sent", "count", "lower", "wall_s on regional_1k, isi_fig8"),
    PerLayer("link.reassembly_ratio", "ratio", "higher", "delivery_ratio on regional_1k, isi_fig8"),
    PerLayer("naming.self_s", "s", "lower", "wall_s on regional_1k; zero on flood_*"),
    PerLayer("naming.calls", "count", "lower", "wall_s on regional_1k; zero on flood_*"),
    PerLayer("naming.memo_hit_rate", "ratio", "higher", "wall_s on regional_1k"),
    PerLayer("core.self_s", "s", "lower", "wall_s on regional_1k, isi_fig8"),
    PerLayer("core.calls", "count", "lower", "wall_s on regional_1k, isi_fig8"),
    PerLayer("core.tx_messages", "count", "lower", "cost_per_delivery on regional_1k, isi_fig8"),
    PerLayer("core.rx_messages", "count", "lower", "wall_s on regional_1k, isi_fig8"),
    PerLayer("core.drops_duplicate", "count", "lower", "wall_s on regional_1k, isi_fig8"),
    PerLayer("core.drops_no_route", "count", "lower", "delivery_ratio on regional_1k, isi_fig8"),
    PerLayer("filters.self_s", "s", "lower", "wall_s on isi_fig8 only"),
    PerLayer("filters.calls", "count", "lower", "wall_s on isi_fig8 only"),
    PerLayer("filters.suppressed", "count", "higher", "cost_per_delivery, paper_error on isi_fig8 only"),
    PerLayer("apps.self_s", "s", "lower", "wall_s on isi_fig8"),
    PerLayer("apps.calls", "count", "lower", "wall_s on isi_fig8"),
    PerLayer("transfer.self_s", "s", "lower", "wall_s on dtn_grid only"),
    PerLayer("transfer.blocks_sent", "count", "lower", "cost_per_delivery on dtn_grid only"),
    PerLayer("transfer.retransmits", "count", "lower", "cost_per_delivery on dtn_grid only"),
    PerLayer("dtn.self_s", "s", "lower", "wall_s on dtn_grid only"),
    PerLayer("dtn.custody_accepted", "count", "lower", "wall_s on dtn_grid only"),
    PerLayer("dtn.reinjections", "count", "lower", "wall_s, delivery_ratio on dtn_grid only"),
    PerLayer("dtn.armed_idle_wall_ratio", "ratio", "lower", "wall_s on dtn_grid only: custody-on / custody-off wall at duty 0"),
    PerLayer("faults.self_s", "s", "lower", "wall_s on dtn_grid only"),
    PerLayer("shard.windows", "count", "lower", "wall_s on regional_1k_sharded only"),
    PerLayer("shard.lookahead_bound_share", "ratio", "lower", "wall_s on regional_1k_sharded only"),
    PerLayer("shard.exchange_bytes", "B", "lower", "wall_s on regional_1k_sharded only"),
    PerLayer("shard.busy_s_max", "s", "lower", "wall_s on regional_1k_sharded only"),
    PerLayer("shard.stall_s_max", "s", "lower", "wall_s on regional_1k_sharded only"),
    PerLayer("shard.load_imbalance", "ratio", "lower", "wall_s on regional_1k_sharded only"),
    PerLayer("shard.wall_ratio_vs_oracle", "ratio", "lower", "wall_s on regional_1k_sharded only: sharded wall / regional_1k wall"),
    PerLayer("testbed.build_s", "s", "lower", "setup_s everywhere"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "none: traced wall / untraced wall, the price of these numbers"),
    PerLayer("trace.unattributed_share", "ratio", "lower", "none: share of traced host time no named layer owns"),
)

#: layers that only the ledger-only workload (``dtn_grid``) runs: their
#: metrics are in result files and the printed table, not in
#: BENCHMARK.json, where they would read absent on every workload.
LEDGER_ONLY_LAYERS = ("transfer", "dtn", "faults")

#: what the contract's result line carries for a metric that does not
#: apply to the workload or that the program no longer exposes.  The
#: result file and the printed table say "absent" instead.
ABSENT = -1


def _div(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    """Ratio with absent inputs absent and an idle denominator zero."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def per_layer_values(
    untraced: Dict[str, Any],
    traced: Optional[Dict[str, Any]],
    vectorized: Optional[Dict[str, Any]],
    oracle: Optional[Dict[str, Any]],
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one workload, ``None`` where absent.

    ``untraced`` / ``traced`` / ``vectorized`` are round results of the
    workload itself, ``oracle`` the single-queue twin of a sharded one.
    Host seconds measured inside a round (span self times, shard busy
    and stall time) are divided by that round's calibrated host speed,
    as its ``wall_s`` is.
    A counter a layer never touched because the layer never ran is zero;
    a counter missing although its layer ran is absent.
    """
    values: Dict[str, Optional[float]] = {m.name: None for m in PER_LAYER}
    if traced is not None:
        trace = traced["trace"]
        layers = trace["layers"]
        exposed = trace["exposed"]
        counters = traced["counters"]["counters"]
        histograms = traced["counters"]["histograms"]

        def counter(name: str, layer: str) -> Optional[float]:
            if name in counters:
                return counters[name]
            return 0 if layers[layer]["calls"] == 0 else None

        speed = traced["host_speed"]
        for layer in ("sim", "radio", "mac", "link", "naming", "core",
                      "filters", "apps", "transfer", "dtn", "faults"):
            values[f"{layer}.self_s"] = layers[layer]["self_s"] / speed
            if f"{layer}.calls" in values:
                values[f"{layer}.calls"] = layers[layer]["calls"]
        wall = trace["traced_wall_s"]
        values["sim.events"] = trace["events"]
        values["sim.events_per_s"] = _div(trace["events"], traced["wall_s"])
        values["sim.max_queue_depth"] = trace["max_queue_depth"]
        values["sim.cancelled_events"] = counter("kernel.cancelled_events", "sim")

        delivered = counter("channel.fragments_delivered", "radio")
        dropped = [
            counter(f"channel.drops{{reason={reason}}}", "radio")
            for reason in ("collision", "half-duplex", "channel-loss")
        ]
        values["radio.fragments_sent"] = counter("channel.fragments_sent", "radio")
        values["radio.useful_ratio"] = (
            None if delivered is None or None in dropped
            else _div(delivered, delivered + sum(dropped))
        )
        values["radio.carrier_checks_per_query"] = _div(
            exposed["channel.carrier_checks"], exposed["channel.carrier_queries"]
        )
        hits, misses = exposed["index.memo_hits"], exposed["index.memo_misses"]
        values["radio.memo_hit_rate"] = (
            None if hits is None or misses is None else _div(hits, hits + misses)
        )
        values["radio.index_rebuilds"] = exposed["index.rebuilds"]

        values["mac.enqueued"] = counter("mac.enqueued", "mac")
        values["mac.backoffs"] = counter("mac.backoffs", "mac")
        values["mac.queue_drops"] = counter("mac.drops{reason=queue-full}", "mac")
        depth = histograms.get("mac.queue_depth")
        values["mac.queue_depth_p95"] = (
            (depth["p95"] or 0) if depth is not None
            else 0 if layers["mac"]["calls"] == 0 else None
        )

        reassembled = counter("frag.messages_delivered", "link")
        failed = counter("frag.drops{reason=reassembly-failure}", "link")
        values["link.messages_sent"] = counter("frag.messages_sent", "link")
        values["link.reassembly_ratio"] = (
            None if reassembled is None or failed is None
            else _div(reassembled, reassembled + failed)
        )

        values["naming.memo_hit_rate"] = _div(
            exposed["match.hits"], exposed["match.lookups"]
        )
        values["core.tx_messages"] = counter("diffusion.tx.messages", "core")
        values["core.rx_messages"] = counter("diffusion.rx.messages", "core")
        values["core.drops_duplicate"] = counter(
            "diffusion.drops{reason=cache-suppression}", "core"
        )
        values["core.drops_no_route"] = counter(
            "diffusion.drops{reason=no-route}", "core"
        )
        values["filters.suppressed"] = exposed["filters.suppressed"]
        values["transfer.blocks_sent"] = counter("transfer.blocks_sent", "transfer")
        values["transfer.retransmits"] = counter("transfer.retransmits", "transfer")
        values["dtn.custody_accepted"] = counter("dtn.custody.accepted", "dtn")
        values["dtn.reinjections"] = counter("dtn.reinjections", "dtn")

        values["testbed.build_s"] = layers["testbed"]["self_s"] / speed
        values["trace.overhead_ratio"] = _div(traced["wall_s"], untraced["wall_s"])
        values["trace.unattributed_share"] = _div(layers["other"]["self_s"], wall)

    arms = untraced.get("arm_wall_s")
    if arms is not None:
        values["dtn.armed_idle_wall_ratio"] = _div(
            arms["custody_on_duty_0.0"], arms["custody_off_duty_0.0"]
        )
    if vectorized is not None:
        values["radio.vectorized_wall_ratio"] = _div(
            vectorized["wall_s"], untraced["wall_s"]
        )
    shard = untraced.get("shard")
    if shard is not None:
        profile, shards = shard["profile"], shard["shards"]
        values["shard.windows"] = profile["windows"]
        values["shard.lookahead_bound_share"] = _div(
            profile["windows_by_term"].get("lookahead", 0), profile["windows"]
        )
        values["shard.exchange_bytes"] = profile["exchange_bytes"]
        speed = untraced["host_speed"]
        values["shard.busy_s_max"] = max(s["busy_seconds"] for s in shards) / speed
        values["shard.stall_s_max"] = max(profile["stall_seconds"]) / speed
        values["shard.load_imbalance"] = profile["imbalance"]
        if oracle is not None:
            values["shard.wall_ratio_vs_oracle"] = _div(
                untraced["wall_s"], oracle["wall_s"]
            )
    return values


def catalogue_lines(bounds: Dict[str, float]) -> List[str]:
    """``--list``: every metric with unit, direction, bound, and the
    layer -> end-to-end map."""
    lines = ["end-to-end metrics (per workload, tracing off)"]
    for m in END_TO_END:
        bound = (
            f"bound {bounds[m.name]:.0%}" if m.name in bounds
            else "exact" if m.kind == "simulated" else "unbounded"
        )
        lines.append(
            f"  {m.name:<20} {m.unit:<13} {m.better:<7} {m.kind:<10} {bound:<11} {m.what}"
        )
    lines.append("")
    lines.append("per-layer metrics (traced run and program counters) -> what they should move")
    for p in PER_LAYER:
        lines.append(f"  {p.name:<32} {p.unit:<6} {p.better:<7} -> {p.moves}")
    return lines
