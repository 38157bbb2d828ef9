"""The scenario registry as a whole: every preset replays, the front
door left is its plan, options compose across presets, and a subset
build is either exact or refused."""

import json
from dataclasses import asdict

import pytest

from repro.apps import NestedQueryExperiment, SurveillanceExperiment
from repro.dtn.scenario import dtn_run
from repro.faults import FaultPlan, NodeCrash
from repro.shard import (
    ShardPlan,
    ShardRuntime,
    build_whole,
    get_scenario,
    run_oracle,
    run_sharded,
    scenario_names,
)
from repro.shard.scenario import PAIR_LAYOUTS
from repro.testbed import (
    FIG8_SINK,
    FIG8_SOURCES,
    FIG9_AUDIO,
    FIG9_LIGHTS,
    FIG9_USER,
    isi_testbed_network,
)

#: name -> (params, seconds): every scenario at a size tier-1 can afford.
SMALL = {
    "flood": ({"columns": 6, "rows": 3}, 3.0),
    "mobility": (
        {"columns": 6, "rows": 3, "move_start": 1.0, "move_interval": 0.5},
        4.0,
    ),
    "diffusion": ({"columns": 6, "rows": 4}, 8.0),
    "regional": ({"columns": 8, "rows": 8, "region": 4}, 4.0),
    "hierarchy": (
        {"columns": 8, "rows": 8, "region": 4, "mode": "clustered"}, 6.0
    ),
    "line": ({"nodes": 4, "send_interval": 2.0}, 20.0),
    "fig8": ({"sources": 2}, 40.0),
    "fig9": ({"num_lights": 2}, 70.0),
    "resilience": ({"fault": "link-flap"}, 70.0),
    "dtn": ({"duty": 0.5}, 110.0),
    "mule": ({}, 100.0),
    "timesync": ({}, 60.0),
    "tracking": ({}, 60.0),
}


def small_plan(name, shards=1, **extra):
    params, seconds = SMALL[name]
    return ShardPlan(name, {**params, **extra}, 5, seconds, shards)


def test_every_scenario_has_a_small_plan():
    assert sorted(SMALL) == scenario_names()


@pytest.mark.parametrize("name", scenario_names())
def test_oracle_replays_and_is_json_safe(name):
    plan = small_plan(name)
    first = run_oracle(plan)
    assert run_oracle(plan) == first
    assert json.loads(json.dumps(first)) == first


class TestFrontDoors:
    """A front door makes the plan its docstring names and runs it."""

    def test_dtn_run(self):
        door = dtn_run(seed=2, duty=0.3, duration=120.0)
        params = {"duty": 0.3, "custody": True}
        assert door == run_oracle(ShardPlan("dtn", params, 2, 120.0, 1))
        assert door["custody_stats"]["accepted"] > 0

    def test_dtn_run_flat_arms_no_mode(self):
        door = dtn_run(seed=2, duty=0.3, duration=120.0, custody=False)
        assert door["mode"] == "flat"
        assert "hierarchy" not in door
        params = {"duty": 0.3, "custody": False}
        assert door == run_oracle(ShardPlan("dtn", params, 2, 120.0, 1))


class TestFigurePresets:
    """``fig8`` / ``fig9`` are the paper's apps on the template's
    network: the outcome is the app's result dataclass, built directly
    on ``isi_testbed_network`` the way ``perf/workloads.py`` builds it."""

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("suppression", [True, False])
    def test_fig8_is_the_surveillance_experiment(self, suppression, seed):
        direct = SurveillanceExperiment(
            isi_testbed_network(seed=seed), sink_id=FIG8_SINK,
            source_ids=FIG8_SOURCES[:3], suppression=suppression,
        ).run(duration=150.0)
        outcome = run_oracle(ShardPlan(
            "fig8", {"sources": 3, "suppression": suppression}, seed, 150.0, 1
        ))
        assert direct.distinct_events_received > 0
        assert outcome == {
            **asdict(direct),
            "bytes_per_event": direct.bytes_per_event,
            "delivery_ratio": direct.delivery_ratio,
        }

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("nested", [True, False])
    def test_fig9_is_the_nested_query_experiment(self, nested, seed):
        direct = NestedQueryExperiment(
            isi_testbed_network(seed=seed), user_id=FIG9_USER,
            audio_id=FIG9_AUDIO, light_ids=FIG9_LIGHTS[:2], nested=nested,
        ).run(duration=200.0)
        outcome = run_oracle(ShardPlan(
            "fig9", {"num_lights": 2, "nested": nested}, seed, 200.0, 1
        ))
        assert direct.possible_events == 6
        assert outcome == {
            **asdict(direct),
            "delivery_percentage": direct.delivery_percentage,
        }

    @pytest.mark.parametrize("name,key,count", [
        ("fig8", "sources", 0), ("fig8", "sources", 5),
        ("fig9", "num_lights", 0), ("fig9", "num_lights", 5),
    ])
    def test_out_of_range_roles_are_refused(self, name, key, count):
        with pytest.raises(ValueError, match=f"{key} must be within"):
            build_whole(ShardPlan(name, {key: count}, 1, 10.0, 1))

    @pytest.mark.parametrize("mode", [None, "clustered", "rendezvous"])
    def test_fig8_monitored_under_a_propagation_mode(self, mode):
        """Whether Fig. 8 survives a clustered or a rendezvous backbone
        is a param, not a runner."""
        plan = ShardPlan(
            "fig8", {"sources": 4, "monitors": True, "mode": mode},
            101, 150.0, 1,
        )
        outcome = run_oracle(plan)
        assert outcome["invariants_ok"], outcome["violations"][:3]
        assert outcome["distinct_events_received"] > 0
        assert ("hierarchy" in outcome) == (mode is not None)
        assert run_oracle(plan) == outcome


class TestDutyCycle:
    """``duty_cycle`` puts ``DutyCycledCsmaMac`` under any preset and
    adds the ``energy`` section."""

    PARAMS = {"nodes": 3, "send_interval": 2.0}

    def test_energy_falls_and_the_section_appears_only_when_named(self):
        plain = run_oracle(ShardPlan("line", self.PARAMS, 5, 40.0, 1))
        assert "energy" not in plain
        spent = {}
        for duty in (1.0, 0.3):
            outcome = run_oracle(ShardPlan(
                "line", {**self.PARAMS, "duty_cycle": duty}, 5, 40.0, 1
            ))
            assert outcome["app_delivered"] > 0
            energy = outcome["energy"]
            assert energy["total"] == pytest.approx(
                energy["listen"] + energy["receive"] + energy["send"]
            )
            spent[duty] = energy["total"]
        assert spent[0.3] < 0.6 * spent[1.0]
        # Always awake is plain CSMA with the ledger read out.
        always = run_oracle(ShardPlan(
            "line", {**self.PARAMS, "duty_cycle": 1.0}, 5, 40.0, 1
        ))
        del always["energy"]
        assert always == plain

    def test_subset_build_is_refused_by_name(self):
        """Wake-up transmissions start outside the attempt events the
        lookahead is derived from: diffusion 6x4 at 0.3, seed 1, 30 s
        delivered 12 in one queue and 10 over 2 inline shards."""
        plan = small_plan("diffusion", shards=2, duty_cycle=0.3)
        with pytest.raises(ValueError, match="diffusion.*duty_cycle"):
            ShardRuntime(plan, 0)
        assert run_oracle(plan)["app_delivered"] > 0


#: the presets whose application wires the whole network.
WHOLE_NETWORK = ("fig8", "fig9", "tracking")


class TestSubsetBuilds:
    """Over 2 shards a preset either equals its oracle or is refused."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_sharded_equals_oracle_or_guard_fires(self, name):
        plan = small_plan(name, shards=2)
        scenario = get_scenario(name)
        p = scenario.resolve(plan.params)
        if (
            name not in WHOLE_NETWORK
            and not p.get("monitors") and p.get("duty_cycle") is None
        ):
            assert run_sharded(plan)["outcome"] == run_oracle(plan)
        else:
            with pytest.raises(ValueError, match="subset build"):
                ShardRuntime(plan, 0)

    def test_line_shards_at_the_paper_timers(self):
        """A preset at the paper's timers shards like any other: the
        loss draw is the same in any shard layout."""
        plan = small_plan("line", shards=2)
        oracle = run_oracle(plan)
        assert oracle["app_delivered"] > 0
        assert run_sharded(plan)["outcome"] == oracle

    @pytest.mark.parametrize("name,extra", [
        ("resilience", {}),
        ("regional", {"monitors": True}),
        ("diffusion", {"fault": "crash"}),
    ])
    def test_guard_names_the_fault_harness(self, name, extra):
        with pytest.raises(ValueError, match=f"{name}.*fault harness"):
            ShardRuntime(small_plan(name, shards=2, **extra), 0)

    @pytest.mark.parametrize("name", WHOLE_NETWORK)
    def test_guard_names_the_testbed_applications(self, name):
        """The paper's apps reach for nodes another shard owns (a
        ``KeyError`` once)."""
        plan = small_plan(name, shards=2)
        with pytest.raises(ValueError, match="subset build.*application"):
            ShardRuntime(plan, 0)

    def test_whole_build_takes_what_a_subset_cannot(self):
        outcome = run_oracle(small_plan("diffusion", fault="crash"))
        assert outcome["timeline"] == []  # the crash is due at t=40
        assert "invariants_ok" not in outcome  # monitors were not named


class TestComposition:
    """The cases no hand-written runner could express."""

    @pytest.mark.parametrize("fault", ["crash", "partition"])
    @pytest.mark.parametrize("mode", ["flat", "clustered"])
    def test_resilience_under_a_propagation_mode(self, mode, fault):
        plan = ShardPlan(
            "resilience", {"fault": fault, "mode": mode}, 7, 110.0, 1
        )
        outcome = run_oracle(plan)
        assert outcome["invariants_ok"], outcome["violations"][:3]
        assert outcome["report"]["faults"][0]["inject_at"] == 40.0
        assert outcome["report"]["messages_delivered"] > 0
        assert (outcome["hierarchy"]["heads"] > 0) == (mode == "clustered")
        assert run_oracle(plan) == outcome

    @pytest.mark.parametrize("mode", ["flat", "rendezvous"])
    def test_regional_monitored(self, mode):
        params = {
            "columns": 8, "rows": 8, "region": 4, "monitors": True,
            "mode": mode, "hierarchy": {"regions": 3},
        }
        plan = ShardPlan("regional", params, 5, 12.0, 1)
        outcome = run_oracle(plan)
        assert outcome["invariants_ok"], outcome["violations"][:3]
        assert outcome["timeline"] == []
        assert outcome["app_delivered"] > 0
        assert (
            outcome["hierarchy"]["suppressed_interests"] > 0
        ) == (mode == "rendezvous")
        assert run_oracle(plan) == outcome

    def test_monitors_off_reports_only_the_timeline(self):
        outcome = run_oracle(ShardPlan(
            "resilience", {"monitors": False}, 7, 60.0, 1
        ))
        assert [e["phase"] for e in outcome["timeline"]] == ["inject"]
        assert "invariants_ok" not in outcome

    def test_flight_recorder_needs_monitors(self, tmp_path):
        params = {"monitors": False, "flight_recorder": str(tmp_path / "f")}
        with pytest.raises(ValueError, match="monitors"):
            build_whole(ShardPlan("resilience", params, 7, 60.0, 1))


class TestBuildOrderIsEventOrder:
    """FaultEngine schedules at construction, so the template's build
    order is the event order at equal times: a crash at t=40.0 ties
    with the stream's send at 5.0 + 35 x 1.0."""

    def test_source_crash_wins_its_tie_with_the_send(self):
        # Harness before workload: the source dies before its 36th
        # send.  Built the other way round the send goes out first and
        # the run differs (44 delivered, repair after 10.3 s).
        plan = FaultPlan((NodeCrash(node=11, at=40.0, recover_at=70.0),))
        report = run_oracle(ShardPlan.named(
            "resilience", {"plan": plan}, 7, duration=120.0
        ))["report"]
        assert report["messages_delivered"] == 22
        assert report["faults"][0]["time_to_repair"] == 2.332901060794711

    def test_resilience_report_is_pinned(self):
        report = run_oracle(
            ShardPlan.named("resilience", {}, 7, duration=120.0)
        )["report"]
        assert report == {
            "faults": [{
                "index": 0,
                "kind": "node-crash",
                "inject_at": 40.0,
                "heal_at": 70.0,
                "delivery_during": 0.1,
                "delivery_after": 0.6041666666666666,
                "time_to_repair": 1.2126680265197507,
                "repair_intervals": 0.15158350331496884,
            }],
            "overall_delivery": 0.37168141592920356,
            "messages_originated": 113,
            "messages_delivered": 42,
            "exploratory_interval": 8.0,
        }

    def test_dtn_delivery_is_pinned(self):
        armed = dtn_run(seed=2, duty=0.6, duration=200.0)
        assert (armed["delivered"], armed["offered"]) == (25, 32)
        assert sum(armed["attribution"].values()) == 7
        assert armed["attribution"]["custody.expire-age"] == 1

    def test_dtn_attribution_is_pinned(self):
        # Each lost block is charged to the drop that happened last
        # (record order is simulation order), so the table no longer
        # follows PYTHONHASHSEED; tests/test_hash_order.py holds that.
        armed = dtn_run(seed=2, duty=0.6, duration=200.0)
        assert armed["attribution"] == {
            "custody.expire-age": 1, "reassembly-failure": 6,
        }


class TestRegionalDefaults:
    def test_empty_params_build_the_grid_the_pairs_assume(self):
        """At PR 18 ``params={}`` built a 10x5 grid and placed the pairs
        for 32x32: zero traffic, no error."""
        scenario = get_scenario("regional")
        net = build_whole(ShardPlan("regional", {}, 1, 3.0, 1))
        assert len(net.macs) == 1024
        pairs = PAIR_LAYOUTS["regions"](scenario.defaults, net.topology)
        assert len(pairs) == 16
        assert all(
            net.topology.has_node(src) and net.topology.has_node(dst)
            for src, dst, _tag in pairs
        )
        sends = [
            event for event in net.sim.pending_events()
            if getattr(event.callback, "__name__", "") == "send"
        ]
        assert len(sends) == 16 * 2  # t=2.0 and 2.5 of a 3 s run


class TestPlanDurationIsTheDefault:
    """At PR 18 a plan whose params lacked ``duration`` stopped sending
    at t=30 whatever ``plan.duration`` said (86 deliveries for 190)."""

    GRID = {"columns": 6, "rows": 4}

    @pytest.mark.parametrize("shards", [1, 2])
    def test_sends_run_to_the_plans_horizon(self, shards):
        bare = ShardPlan("diffusion", dict(self.GRID), 11, 60.0, shards)
        named = ShardPlan(
            "diffusion", dict(self.GRID, duration=60.0), 11, 60.0, shards
        )

        def run(plan):
            return (
                run_sharded(plan)["outcome"] if shards > 1 else run_oracle(plan)
            )

        outcome = run(bare)
        assert outcome == run(named)
        assert outcome["app_delivered"] == 136
        assert max(outcome["delivery_times"]) > 55.0

    def test_explicit_param_still_wins(self):
        short = ShardPlan(
            "diffusion", dict(self.GRID, duration=30.0), 11, 60.0, 1
        )
        assert run_oracle(short)["app_delivered"] == 48
