"""The paper's claims as one table, judged over the campaigns that chart them.

Each :class:`Claim` row names its experiment (the ids of DESIGN.md §4),
the ``repro experiments`` section that runs it, its source — a campaign
of :data:`~repro.campaign.builtin.CAMPAIGNS` or one of the in-process
:data:`SOURCES` (the analytical models, the matching timings, the mote
build) — a metric over what that source returns (a campaign's trial
outcomes), a closed band, the paper's value and the sentence that fixes
the band.  ``python -m repro experiments`` runs each section's sources
once, prints their tables and one line per row, and on the full grids
exits 1 if any value falls outside its band; ``--quick`` grids are too
small to judge, so there the lines carry the value beside its band and
no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis import TrafficModel

INF = float("inf")

#: the ``repro experiments`` sections, in report order; ``--only``
#: offers exactly these.
SECTIONS = ("fig8", "fig9", "fig11", "duty", "model", "micro", "ablations")


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``lo <= metric(source outcomes) <= hi``."""

    id: str
    section: str
    source: str
    what: str
    metric: Callable[[Any], float]
    band: Tuple[float, float]
    paper: str
    basis: str

    def holds(self, value: float) -> bool:
        low, high = self.band
        return low <= value <= high


# ---------------------------------------------------------------------------
# reading outcomes


def _results(outcomes, **where) -> List[Dict[str, Any]]:
    """The results of the trials whose params hold every ``where`` value."""
    return [
        o.result
        for o in outcomes
        if o.ok and all(o.spec.params.get(k) == v for k, v in where.items())
    ]


def _mean(outcomes, read, **where) -> float:
    """Mean of ``read`` (a result key or a function of a result) over
    the trials matching ``where``."""
    values = [
        read(r) if callable(read) else r[read] for r in _results(outcomes, **where)
    ]
    return sum(values) / len(values)


def _steepest_step(values: List[float]) -> float:
    """The largest ratio of a value to the one before it: below 1 iff
    the sequence falls at every step."""
    return max(b / a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Figure 8 and the Section 6.1 traffic model


def _fig8(outcomes, sources: int, suppression: bool) -> float:
    return _mean(
        outcomes, "bytes_per_event", sources=sources, suppression=suppression
    )


def _fig8_flatness(outcomes) -> float:
    curve = [_fig8(outcomes, n, True) for n in (1, 2, 3, 4)]
    return max(curve) / min(curve)


def _fig8_saving(outcomes) -> float:
    return 1.0 - _fig8(outcomes, 4, True) / _fig8(outcomes, 4, False)


def _fig8_deliveries(outcomes) -> List[float]:
    return [
        _mean(outcomes, "delivery_ratio", sources=n, suppression=s)
        for n in (1, 2, 3, 4)
        for s in (True, False)
    ]


def _measured_over_model(outcomes, suppression: bool) -> float:
    return _fig8(outcomes, 4, suppression) / TrafficModel().bytes_per_event(
        4, suppression
    )


def _overhead_share_step(model) -> float:
    """Flooded (interest + exploratory) share of aggregated traffic at
    1:5, 1:10, 1:50 and 1:100 exploratory:data: its steepest step."""
    shares = []
    for ratio in (5, 10, 50, 100):
        b = TrafficModel(exploratory_ratio=ratio).breakdown(4, aggregated=True)
        shares.append((b.interest + b.exploratory) / b.total)
    return _steepest_step(shares)


# ---------------------------------------------------------------------------
# Figure 9


def _fig9(outcomes, lights: int, nested: bool) -> float:
    return _mean(
        outcomes, "delivery_percentage", num_lights=lights, nested=nested
    )


def _fig9_reductions(outcomes) -> List[float]:
    return [
        _fig9(outcomes, n, True) - _fig9(outcomes, n, False)
        for n in (1, 2, 3, 4)
    ]


def _fig9_latency(outcomes) -> float:
    def latency(nested):
        return _mean(
            [o for o in outcomes if o.ok and o.result["mean_latency"] is not None],
            "mean_latency", nested=nested,
        )

    return latency(True) / latency(False)


# ---------------------------------------------------------------------------
# Figure 11


def _match_cost(matching, variant: str, size: int) -> float:
    return next(
        m.seconds_per_match
        for m in matching["fig11"]
        if m.variant.value == variant and m.set_b_size == size
    )


def _match_slope(matching, variant: str) -> float:
    """Microseconds a match of ``variant`` gains from |B| 6 to 30."""
    return _match_cost(matching, variant, 30) - _match_cost(matching, variant, 6)


# ---------------------------------------------------------------------------
# the ablations


def _duty_energies(outcomes) -> List[float]:
    """Total radio energy at each duty cycle, always-on first."""
    return [
        _mean(outcomes, lambda r: r["energy"]["total"], duty_cycle=d)
        for d in (1.0, 0.5, 0.2, 0.1)
    ]


def _duty_delivery(outcomes) -> float:
    from repro.shard.scenario import get_scenario, stream_sends

    low = [o for o in outcomes if o.ok and o.spec.params["duty_cycle"] == 0.1]
    sends = stream_sends(get_scenario("line").resolve(low[0].spec.params))
    return _mean(low, "app_delivered") / sends


def _listen_share(outcomes) -> float:
    return _mean(
        outcomes, lambda r: r["energy"]["listen"] / r["energy"]["total"],
        duty_cycle=1.0,
    )


def _push_over_pull(outcomes, read) -> float:
    return _mean(outcomes, read, push=True, shape="6x1") / _mean(
        outcomes, read, push=False, shape="6x1"
    )


def _latency_added(outcomes, variant: str) -> float:
    return _mean(outcomes, "mean_latency", filter=variant) - _mean(
        outcomes, "mean_latency", filter="none"
    )


def _most_missed(outcomes) -> float:
    return max(r["generated"] - r["distinct"] for r in _results(outcomes))


CLAIMS: Tuple[Claim, ...] = (
    # -- Figure 8 (the fig8 campaign: 5 seeds x 1800 s per point) --------
    Claim(
        "FIG8", "fig8", "fig8",
        "B/event suppressed, max / min over 1-4 sources",
        _fig8_flatness, (1.0, 1.8), "flat",
        "Section 6.1 expects aggregation to give 'a flat 990B/event "
        "independent of the number of sources'; 1.8x leaves room for the "
        "collisions near the sources the testbed also saw",
    ),
    Claim(
        "FIG8", "fig8", "fig8",
        "B/event unsuppressed, 4 sources / 1 source",
        lambda o: _fig8(o, 4, False) / _fig8(o, 1, False), (1.2, INF),
        "990 -> 3289 B/event (model)",
        "Figure 8: without suppression traffic per event grows with the "
        "number of sources",
    ),
    Claim(
        "FIG8", "fig8", "fig8", "savings at 4 sources",
        _fig8_saving, (0.25, 0.70), "42%",
        "Figure 8: suppression saves up to 42% at four sources; the band "
        "allows for MAC and radio model differences while requiring the "
        "effect to be substantial and in the right direction",
    ),
    Claim(
        "FIG8", "fig8", "fig8", "B/event at 1 source, with / without",
        lambda o: _fig8(o, 1, True) / _fig8(o, 1, False), (0.8, 1.2),
        "the curves meet",
        "Figure 8: with one source there is nothing to suppress, so both "
        "curves start from the same point",
    ),
    Claim(
        "FIG8", "fig8", "fig8", "lowest delivery ratio of any point",
        lambda o: min(_fig8_deliveries(o)), (0.25, 0.99), "55-80%",
        "Section 6.1: 'Only 55-80% of events generated in the experiment "
        "were delivered to the sink'; delivery must be partial, neither "
        "perfect nor collapsed",
    ),
    Claim(
        "FIG8", "fig8", "fig8", "highest delivery ratio of any point",
        lambda o: max(_fig8_deliveries(o)), (0.25, 0.99), "55-80%",
        "the same sentence, at the other end",
    ),
    Claim(
        "TRAFMODEL", "fig8", "fig8",
        "measured / model B/event, 4 sources, suppressed",
        lambda o: _measured_over_model(o, True), (0.8, INF), "model underpredicts",
        "Section 6.1: the model 'underpredicts the B/event of aggregation', "
        "since collisions 'drive bytes-per-event to the middle'",
    ),
    Claim(
        "TRAFMODEL", "fig8", "fig8",
        "measured / model B/event, 4 sources, unsuppressed",
        lambda o: _measured_over_model(o, False), (0.0, 1.2), "model overpredicts",
        "Section 6.1: the model 'overpredicts the 4-source/no-aggregation "
        "case'",
    ),
    # -- Figure 9 (the fig9 campaign: 3 seeds x 1200 s per point) --------
    Claim(
        "FIG9", "fig9", "fig9", "least nested - flat delivery, points",
        lambda o: min(_fig9_reductions(o)), (0.0, 100.0), "nested wins",
        "Figure 9: nested queries deliver more than flat ones at every "
        "sensor count",
    ),
    Claim(
        "FIG9", "fig9", "fig9", "mean loss reduction from nesting, points",
        lambda o: sum(_fig9_reductions(o)) / 4, (10.0, 45.0), "15-30",
        "Figure 9: nesting reduces loss by 15-30 points; the band is wider "
        "for three trials per point",
    ),
    Claim(
        "FIG9", "fig9", "fig9", "nested delivery, 4 sensors / 1 sensor",
        lambda o: _fig9(o, 4, True) / _fig9(o, 1, True), (0.0, 1.0), "falls",
        "Figure 9: delivery degrades as sensors, and hence traffic, are "
        "added",
    ),
    Claim(
        "FIG9", "fig9", "fig9", "flat delivery, 4 sensors / 1 sensor",
        lambda o: _fig9(o, 4, False) / _fig9(o, 1, False), (0.0, 1.0), "falls",
        "the same sentence, for the flat query",
    ),
    Claim(
        "FIG9", "fig9", "fig9", "nested delivery at 1 sensor, %",
        lambda o: _fig9(o, 1, True), (40.0, 100.0), "best-effort",
        "Figure 9: multi-hop delivery is partial, but one sensor's events "
        "mostly arrive",
    ),
    Claim(
        "FIG9", "fig9", "fig9", "nested / flat change->audio latency",
        _fig9_latency, (0.0, 1.1), "lower",
        "Section 5.2: a nested query localizes traffic near the event, and "
        "the 'reduction in latency can be substantial'",
    ),
    # -- Figure 11 (two-way matches timed, 2000 per point) --------------
    Claim(
        "FIG11", "fig11", "matching", "match/IS us per match, |B| 30 / 6",
        lambda m: _match_cost(m, "match/is", 30) / _match_cost(m, "match/is", 6),
        (1.0, INF), "grows",
        "Figure 11: matching cost grows with the attributes in set B",
    ),
    Claim(
        "FIG11", "fig11", "matching", "match/EQ us per match, |B| 30 / 6",
        lambda m: _match_cost(m, "match/eq", 30) / _match_cost(m, "match/eq", 6),
        (1.0, INF), "grows",
        "the same sentence, for extra formals",
    ),
    Claim(
        "FIG11", "fig11", "matching", "match/EQ slope / match/IS slope",
        lambda m: _match_slope(m, "match/eq") / _match_slope(m, "match/is"),
        (0.5, INF), "EQ steepest",
        "Section 6.3: each extra formal must search the other set, while "
        "extra actuals are only examined",
    ),
    Claim(
        "FIG11", "fig11", "matching", "no-match/IS / match/IS at |B| 30",
        lambda m: _match_cost(m, "no-match/is", 30)
        / _match_cost(m, "match/is", 30),
        (0.0, 1.0), "cheaper",
        "Section 6.3: a failing match aborts early, so its line stays low",
    ),
    Claim(
        "FIG11", "fig11", "matching", "no-match/EQ / match/EQ at |B| 30",
        lambda m: _match_cost(m, "no-match/eq", 30)
        / _match_cost(m, "match/eq", 30),
        (0.0, 1.0), "cheaper",
        "the same sentence, for extra formals",
    ),
    Claim(
        "FIG11", "fig11", "matching", "match/IS matches per second, |B| 6",
        lambda m: 1.0 / _match_cost(m, "match/is", 6), (10_000.0, INF),
        "2000/s",
        "Section 6.3: 2000 matches/s on a 66 MHz 486 sufficed for event "
        "rates of 10 Hz or less; any current host must do several times "
        "that",
    ),
    # -- Section 6.1 duty-cycle analysis ---------------------------------
    Claim(
        "DUTY", "duty", "duty-model", "listen share of energy at d = 1",
        lambda m: m.breakdown(1.0).listen_fraction, (0.8, 1.0),
        "dominated",
        "Section 6.1: at full duty the energy is 'completely dominated by "
        "energy spent listening'",
    ),
    Claim(
        "DUTY", "duty", "duty-model", "duty cycle where listening is half",
        lambda m: m.listen_half_duty_cycle(), (0.15, 0.25), "22%",
        "Section 6.1: at d = 22% 'half of the energy is spent listening'",
    ),
    Claim(
        "DUTY", "duty", "duty-model", "send / listen energy at d = 0.10",
        lambda m: m.breakdown(0.10).send / m.breakdown(0.10).listen,
        (1.0, INF), "send-dominated",
        "Section 6.1: 'duty cycles of 10% begin to be dominated by send "
        "cost'",
    ),
    # -- Section 6.1 traffic model ---------------------------------------
    Claim(
        "TRAFMODEL", "model", "traffic-model",
        "aggregated B/event, max - min over 1-4 sources",
        lambda m: max(m.bytes_per_event(n, True) for n in (1, 2, 3, 4))
        - min(m.bytes_per_event(n, True) for n in (1, 2, 3, 4)),
        (0.0, 0.0), "flat",
        "Section 6.1: 'a flat 990B/event independent of the number of "
        "sources'",
    ),
    Claim(
        "TRAFMODEL", "model", "traffic-model", "aggregated B/event, 1 source",
        lambda m: m.bytes_per_event(1, True), (980.1, 999.9), "990",
        "the same sentence: 990 within 1%",
    ),
    Claim(
        "TRAFMODEL", "model", "traffic-model",
        "unaggregated B/event, 4 sources",
        lambda m: m.bytes_per_event(4, False), (3124.55, 3450.0), "3289",
        "Section 6.1: 'increase from 990 to 3289B/event without "
        "aggregation'; 5% under to 5% over (ours reads 4% high, see "
        "EXPERIMENTS.md)",
    ),
    Claim(
        "TRAFMODEL", "model", "traffic-model", "model savings at 4 sources",
        lambda m: m.savings(4), (0.5, 1.0), "70%",
        "the same sentence: 990 against 3289 saves 70%",
    ),
    Claim(
        "ABL-RATIO", "model", "traffic-model",
        "flooded share of B/event, steepest step 1:5..1:100",
        _overhead_share_step, (0.0, 1.0), "falls",
        "Section 6.1 explains the 42% against simulation's 3-5x by the "
        "exploratory:data ratio: more data per flood dilutes the flooded "
        "overhead",
    ),
    # -- Section 4.3 micro-diffusion -------------------------------------
    Claim(
        "MICRO", "micro", "micro", "modeled mote data bytes",
        lambda m: m["footprint"]["modeled_data_bytes"], (0.0, 106.0), "106",
        "Section 4.3: micro-diffusion 'adds only ... 106 bytes of data'",
    ),
    Claim(
        "MICRO", "micro", "micro", "DATA message bytes, 16 B payload",
        lambda m: m["message_bytes"], (0.0, 30.0), "30",
        "Section 4.4: 'Several low-power radio designs have packet sizes "
        "as small as 30B'",
    ),
    Claim(
        "MICRO", "micro", "micro", "photo samples delivered, of 20",
        lambda m: m["tiered"]["delivered"], (15.0, INF), "interop",
        "Section 4.3: a gateway bridges the motes to full diffusion; on "
        "ideal links only the warm-up loses samples",
    ),
    Claim(
        "MICRO", "micro", "micro", "interests bridged down",
        lambda m: m["tiered"]["interests_bridged"], (1.0, INF), "interop",
        "the same sentence: the user's interest must cross the gateway",
    ),
    # -- the ablations ---------------------------------------------------
    Claim(
        "SCALE", "ablations", "scale-aggregation", "savings factor",
        lambda o: _mean(o, "bytes_per_event", suppression=False)
        / _mean(o, "bytes_per_event", suppression=True),
        (2.5, 6.0), "3-5x",
        "Section 6.1: simulation showed aggregation 'can reduce energy "
        "consumption by a factor of 3-5x' with five sources and sinks at "
        "1:100 exploratory:data",
    ),
    Claim(
        "SCALE", "ablations", "scale-aggregation", "most events missed",
        _most_missed, (0.0, 2.0), "none",
        "a protocol-scale study on ideal links, as the ns-2 one was: "
        "delivery is essentially complete",
    ),
    Claim(
        "ABL-DUTY", "ablations", "ablation-dutycycle",
        "energy, steepest step of d = 1, 0.5, 0.2, 0.1",
        lambda o: _steepest_step(_duty_energies(o)), (0.0, 1.0), "falls",
        "Section 6.1: without sleeping, listening dominates, so energy "
        "falls with the duty cycle",
    ),
    Claim(
        "ABL-DUTY", "ablations", "ablation-dutycycle",
        "energy at d = 0.1 / d = 1",
        lambda o: _duty_energies(o)[-1] / _duty_energies(o)[0], (0.0, 0.25),
        "energy-conscious MAC",
        "Section 6.1: duty cycles of 10-15% change the balance entirely",
    ),
    Claim(
        "ABL-DUTY", "ablations", "ablation-dutycycle", "delivery at d = 0.1",
        _duty_delivery, (0.5, 1.0), "keeps delivering",
        "the synchronized-window MAC keeps delivering while it sleeps",
    ),
    Claim(
        "ABL-DUTY", "ablations", "ablation-dutycycle",
        "listen share of energy at d = 1",
        _listen_share, (0.9, 1.0), "dominated",
        "Section 6.1: an always-listening radio's energy is 'completely "
        "dominated by energy spent listening'",
    ),
    Claim(
        "ABL-PUSH", "ablations", "ablation-push-pull",
        "push / pull bytes, 6 sinks x 1 source",
        lambda o: _push_over_pull(o, "bytes"), (0.0, 1.0), "push wins",
        "Section 3.1: the paradigm is more general than query-response; "
        "with many sinks, advertising sources carry fewer bytes",
    ),
    Claim(
        "ABL-PUSH", "ablations", "ablation-push-pull",
        "push / pull events received, 6 x 1",
        lambda o: _push_over_pull(o, "received"), (0.8, INF), "matched",
        "push must not buy its bytes with delivery",
    ),
    Claim(
        "ABL-PUSH", "ablations", "ablation-push-pull",
        "pull bytes with no sink, 0 x 6",
        lambda o: _mean(o, "bytes", push=False, shape="0x6"), (0.0, 0.0),
        "silent",
        "two-phase pull sends nothing until someone asks",
    ),
    Claim(
        "ABL-PUSH", "ablations", "ablation-push-pull",
        "push bytes with no sink, 0 x 6",
        lambda o: _mean(o, "bytes", push=True, shape="0x6"), (1.0, INF),
        "advertises",
        "push keeps paying for its advertisements",
    ),
    Claim(
        "ABL-PUSH", "ablations", "ablation-push-pull",
        "fewest events received by an arm with a sink",
        lambda o: min(
            o_.result["received"]
            for o_ in o
            if o_.ok and not o_.spec.params["shape"].startswith("0x")
        ),
        (1.0, INF), "both deliver",
        "both modes are diffusion: every arm with a sink delivers",
    ),
    Claim(
        "ABL-LAT", "ablations", "ablation-latency",
        "suppression - no filter, mean latency s",
        lambda o: _latency_added(o, "suppression"), (-0.05, 0.05), "none",
        "Section 6.1: the suppression algorithm 'does not affect latency "
        "at all'",
    ),
    Claim(
        "ABL-LAT", "ablations", "ablation-latency",
        "counting - no filter, mean latency s",
        lambda o: _latency_added(o, "counting"), (0.5, 2.5), "adds its hold",
        "Section 6.1: filters that delay 'with the hope of aggregating "
        "readings ... can add some latency'; a 0.5 s hold at each of "
        "four filter points, so 0.5 to 5 x 0.5 s",
    ),
    Claim(
        "ABL-LAT", "ablations", "ablation-latency",
        "fewest events delivered by a filter, of 40",
        lambda o: min(r["delivered"] for r in _results(o)), (40.0, 40.0),
        "all",
        "on ideal links no filter may lose an event",
    ),
    Claim(
        "ABL-GEAR", "ablations", "ablation-gear",
        "interest transmissions, GEAR / plain",
        lambda o: _mean(o, "interest_transmissions", gear=True)
        / _mean(o, "interest_transmissions", gear=False),
        (0.0, 0.7), "prunes",
        "Section 4.2: filters with geographic information avoid flooding "
        "interests (ref [39])",
    ),
    Claim(
        "ABL-GEAR", "ablations", "ablation-gear",
        "corner region reached under GEAR",
        lambda o: _mean(o, "region_reached", gear=True), (1.0, 1.0),
        "reached",
        "pruning must still reach every sensor in the queried region",
    ),
    Claim(
        "ABL-MULTI", "ablations", "ablation-multipath",
        "delivery, 2 paths - 1 path",
        lambda o: _mean(o, "delivery_ratio", multipath_degree=2)
        - _mean(o, "delivery_ratio", multipath_degree=1),
        (0.0, 1.0), "more robust",
        "Section 6.4: diffusion 'might send similar data over multiple "
        "paths to gain robustness when faced with low-quality links'",
    ),
    Claim(
        "ABL-MULTI", "ablations", "ablation-multipath",
        "delivery with 2 paths",
        lambda o: _mean(o, "delivery_ratio", multipath_degree=2),
        (0.3, 1.0), "meaningful",
        "the intermittent testbed still delivers a useful share",
    ),
    Claim(
        "ABL-REINF", "ablations", "ablation-reinforcement",
        "B/event, flooding / two-phase pull",
        lambda o: _mean(o, "bytes_per_event", reinforcement=False)
        / _mean(o, "bytes_per_event", reinforcement=True),
        (1.5, INF), "pull cheaper",
        "Section 3: reinforcement sends data on one path instead of "
        "flooding every message",
    ),
    Claim(
        "ABL-REINF", "ablations", "ablation-reinforcement",
        "lower mean delivery of the two",
        lambda o: min(
            _mean(o, "delivery_ratio", reinforcement=r) for r in (True, False)
        ),
        (0.3, 1.0), "both deliver",
        "both variants deliver; flooding buys redundancy with bytes",
    ),
    Claim(
        "ABL-RATIO", "ablations", "ablation-ratio",
        "B/event, exploratory every 120 s / every 30 s",
        lambda o: _mean(o, "bytes_per_event", exploratory_interval=120.0)
        / _mean(o, "bytes_per_event", exploratory_interval=30.0),
        (0.0, 1.0), "falls",
        "Section 6.1: more data per exploratory flood lowers the cost of "
        "each event",
    ),
    Claim(
        "XFER", "ablations", "bulk-transfer",
        "transfers completed checksum-intact, of 2",
        lambda o: sum(r["intact"] for r in _results(o)), (2.0, 2.0), "all",
        "Section 3.1 promises a 'retransmission scheme for applications "
        "that transfer large, persistent data objects'",
    ),
    Claim(
        "XFER", "ablations", "bulk-transfer", "most repair rounds",
        lambda o: max(r["repair_rounds"] for r in _results(o)), (0.0, 30.0),
        "bounded",
        "the receiver gives up after 30 NACK rounds",
    ),
    Claim(
        "XFER", "ablations", "bulk-transfer", "most repairs served per block",
        lambda o: max(r["repairs_served"] / r["blocks"] for r in _results(o)),
        (0.0, 2.0), "a fraction",
        "repair traffic stays a fraction of the stream",
    ),
)


# ---------------------------------------------------------------------------
# the in-process sources


def _matching(quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig11_matching import measure_segregation, run_fig11

    iterations = 500 if quick else 2000
    return {
        "fig11": run_fig11(iterations=iterations),
        "segregation": measure_segregation(iterations),
    }


def _duty_model(quick: bool):
    from repro.energy import DutyCycleModel

    return DutyCycleModel()


def _traffic_model(quick: bool):
    return TrafficModel()


def _micro(quick: bool) -> Dict[str, Any]:
    from repro.micro import MicroMessage, MicroMessageKind, tiered_trial
    from repro.micro.footprint import footprint_report

    message = MicroMessage(
        MicroMessageKind.DATA, tag=1, origin=2, seq=3, payload=bytes(16)
    )
    return {
        "footprint": footprint_report(),
        "tiered": tiered_trial(),
        "message_bytes": message.nbytes,
    }


#: the sources that are no campaign: name -> ``f(quick)``.
SOURCES: Dict[str, Callable[[bool], Any]] = {
    "matching": _matching,
    "duty-model": _duty_model,
    "traffic-model": _traffic_model,
    "micro": _micro,
}


def section_claims(section: str) -> List[Claim]:
    return [claim for claim in CLAIMS if claim.section == section]


def claim_line(claim: Claim, value: float, judged: bool) -> str:
    """``PASS`` / ``MISS`` (``----`` unjudged), the row, its value and band."""
    low, high = claim.band
    if high == INF:
        band = f">= {low:g}"
    elif low == high:
        band = f"= {low:g}"
    else:
        band = f"{low:g}..{high:g}"
    verdict = ("PASS" if claim.holds(value) else "MISS") if judged else "----"
    return (
        f"{verdict}  {claim.id:<9} {claim.what:<52} {value:>9.4g}"
        f"  band {band:<13} paper: {claim.paper}"
    )
