"""Tests for the FaultPlan DSL: validation and JSON round-trips."""

import pytest

from repro.faults import (
    ClockSkew,
    EnergyBrownout,
    FaultPlan,
    FragmentCorruption,
    LinkFlap,
    NodeCrash,
    Partition,
    PlanError,
)

NODES = range(12)


def full_plan() -> FaultPlan:
    return FaultPlan(
        (
            NodeCrash(node=5, at=10.0, recover_at=30.0),
            LinkFlap(a=0, b=5, at=20.0, down=5.0, flaps=2, period=12.0),
            Partition(groups=((0, 1, 4), (2, 3, 6)), at=40.0, heal_at=60.0),
            ClockSkew(node=7, at=15.0, offset=2.0),
            FragmentCorruption(node=5, at=50.0, duration=10.0, rate=0.5),
            EnergyBrownout(node=9, at=70.0, duration=20.0, duty_cycle=0.2),
        )
    )


class TestValidation:
    def test_full_plan_validates(self):
        plan = full_plan()
        assert plan.validate(NODES) is plan
        assert len(plan) == 6

    def test_unknown_node_names_action_index(self):
        plan = FaultPlan((NodeCrash(node=99, at=1.0),))
        with pytest.raises(PlanError, match=r"action 0 \(node-crash\).*99"):
            plan.validate(NODES)

    def test_recovery_must_follow_crash(self):
        plan = FaultPlan((NodeCrash(node=1, at=10.0, recover_at=5.0),))
        with pytest.raises(PlanError, match="must follow"):
            plan.validate(NODES)

    def test_link_needs_distinct_endpoints(self):
        plan = FaultPlan((LinkFlap(a=3, b=3, at=1.0),))
        with pytest.raises(PlanError, match="distinct"):
            plan.validate(NODES)

    def test_flap_period_must_exceed_down_window(self):
        plan = FaultPlan((LinkFlap(a=0, b=1, at=1.0, down=10.0, flaps=3,
                                   period=5.0),))
        with pytest.raises(PlanError, match="period"):
            plan.validate(NODES)

    def test_partition_rejects_overlapping_groups(self):
        plan = FaultPlan(
            (Partition(groups=((0, 1), (1, 2)), at=1.0, heal_at=5.0),)
        )
        with pytest.raises(PlanError, match="two groups"):
            plan.validate(NODES)

    def test_partition_needs_two_groups(self):
        plan = FaultPlan((Partition(groups=((0, 1),), at=1.0, heal_at=5.0),))
        with pytest.raises(PlanError, match="at least two"):
            plan.validate(NODES)

    def test_clock_skew_must_change_something(self):
        plan = FaultPlan((ClockSkew(node=1, at=1.0),))
        with pytest.raises(PlanError, match="offset or drift"):
            plan.validate(NODES)

    def test_corruption_rate_bounds(self):
        plan = FaultPlan(
            (FragmentCorruption(node=1, at=1.0, duration=5.0, rate=1.5),)
        )
        with pytest.raises(PlanError, match="rate"):
            plan.validate(NODES)

    def test_brownout_duty_cycle_bounds(self):
        plan = FaultPlan(
            (EnergyBrownout(node=1, at=1.0, duration=5.0, duty_cycle=1.0),)
        )
        with pytest.raises(PlanError, match="duty_cycle"):
            plan.validate(NODES)


class TestDerived:
    def test_horizon_covers_latest_window(self):
        plan = full_plan()
        # The brownout runs 70..90 — the latest touch.
        assert plan.horizon() == pytest.approx(90.0)

    def test_needs_overlay_only_for_link_actions(self):
        assert full_plan().needs_overlay()
        crash_only = FaultPlan((NodeCrash(node=1, at=1.0),))
        assert not crash_only.needs_overlay()

    def test_flap_effective_period_defaults_to_twice_down(self):
        flap = LinkFlap(a=0, b=1, at=0.0, down=7.0)
        assert flap.effective_period == pytest.approx(14.0)

    def test_flap_window_spans_all_cycles(self):
        flap = LinkFlap(a=0, b=1, at=10.0, down=5.0, flaps=3, period=20.0)
        assert flap.window() == (10.0, 55.0)


class TestJson:
    def test_round_trip_is_identity(self):
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_round_trip_preserves_validation(self):
        restored = FaultPlan.from_json(full_plan().to_json())
        restored.validate(NODES)

    def test_missing_actions_rejected(self):
        with pytest.raises(PlanError, match="actions"):
            FaultPlan.from_json({})

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError, match="meteor-strike"):
            FaultPlan.from_json(
                {"actions": [{"kind": "meteor-strike", "at": 1.0}]}
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(PlanError, match="severity"):
            FaultPlan.from_json(
                {"actions": [{"kind": "node-crash", "node": 1, "at": 1.0,
                              "severity": 9}]}
            )

    def test_brownout_period_is_an_unknown_field(self):
        # The frame is the MAC's own (CsmaMac.PERIOD), not the plan's.
        with pytest.raises(PlanError, match="unknown field 'period'"):
            FaultPlan.from_json(
                {"actions": [{"kind": "energy-brownout", "node": 1,
                              "at": 1.0, "duration": 5.0, "duty_cycle": 0.2,
                              "period": 1.0}]}
            )

    def test_missing_required_field_rejected(self):
        with pytest.raises(PlanError, match="node-crash"):
            FaultPlan.from_json({"actions": [{"kind": "node-crash", "at": 1.0}]})

    @pytest.mark.parametrize("action, field", [
        ({"kind": "node-crash", "node": 1, "at": "soon"}, "at"),
        ({"kind": "node-crash", "node": 1, "at": float("inf")}, "at"),
        ({"kind": "node-crash", "node": 1, "at": float("nan")}, "at"),
        ({"kind": "node-crash", "node": 1, "at": 10 ** 400}, "at"),
        ({"kind": "node-crash", "node": 1, "at": True}, "at"),
        ({"kind": "node-crash", "node": 1.0, "at": 1.0}, "node"),
        ({"kind": "node-crash", "node": 1, "at": 1.0, "recover_at": "2"},
         "recover_at"),
        ({"kind": "node-crash", "node": 1, "at": 1.0, "clear_state": 0},
         "clear_state"),
        ({"kind": "link-flap", "a": 0, "b": 1, "at": 1.0, "period": "x"},
         "period"),
        ({"kind": "link-flap", "a": 0, "b": 1, "at": 1.0, "flaps": 2.5},
         "flaps"),
        ({"kind": "partition", "groups": 5, "at": 1.0, "heal_at": 2.0},
         "groups"),
        ({"kind": "partition", "groups": [[0], ["1"]], "at": 1.0,
          "heal_at": 2.0}, "groups"),
    ])
    def test_field_of_the_wrong_type_rejected(self, action, field):
        with pytest.raises(
            PlanError, match=rf"action 0 \({action['kind']}\): field '{field}'"
        ):
            FaultPlan.from_json({"actions": [action]})

    def test_integer_times_accepted(self):
        plan = FaultPlan.from_json(
            {"actions": [{"kind": "node-crash", "node": 1, "at": 10}]}
        )
        assert plan.horizon() == 10
