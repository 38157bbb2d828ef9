"""Forwarding policies: hash stability, region geometry, suppression."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.hierarchy.hashing import (
    RegionMap,
    point_segment_distance,
    splitmix64,
    stable_hash64,
)
from repro.hierarchy.policy import ForwardPolicy
from repro.shard import ShardPlan, run_oracle

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


class TestStableHashing:
    def test_splitmix64_golden_vector(self):
        # First output of the reference splitmix64 stream seeded with 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_type_tags_keep_values_apart(self):
        assert stable_hash64(1) != stable_hash64("1")
        assert stable_hash64(True) != stable_hash64(1)
        assert stable_hash64(b"x") != stable_hash64("x")

    def test_seed_moves_the_hash(self):
        assert stable_hash64("vibration", seed=0) != stable_hash64(
            "vibration", seed=1
        )

    def test_unhashable_types_are_rejected(self):
        with pytest.raises(TypeError):
            stable_hash64(object())

    def test_independent_of_pythonhashseed(self):
        # hash(str) is salted per process; every shard worker must agree
        # on where a rendezvous value lives regardless.
        code = (
            "from repro.hierarchy.hashing import stable_hash64;"
            "print(stable_hash64('vibration'), stable_hash64(42))"
        )
        outputs = set()
        for hashseed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            outputs.add(proc.stdout.strip())
        assert outputs == {f"{stable_hash64('vibration')} {stable_hash64(42)}"}


class TestRegionMap:
    def test_value_region_is_in_range_and_stable(self):
        region_map = RegionMap(0, 0, 100, 100, regions=4)
        region = region_map.region_of_value("temp")
        assert 0 <= region < 16
        assert region_map.region_of_value("temp") == region

    def test_salt_relocates_values(self):
        plain = RegionMap(0, 0, 100, 100, regions=8, salt=0)
        salted = RegionMap(0, 0, 100, 100, regions=8, salt=99)
        values = [f"v{i}" for i in range(32)]
        assert [plain.region_of_value(v) for v in values] != [
            salted.region_of_value(v) for v in values
        ]

    def test_region_centers_round_trip(self):
        region_map = RegionMap(0, 0, 100, 100, regions=4)
        for region in range(16):
            cx, cy = region_map.center(region)
            assert region_map.region_of_point(cx, cy) == region
            assert region_map.contains(region, cx, cy)

    def test_boundary_points_clamp_into_the_grid(self):
        region_map = RegionMap(0, 0, 100, 100, regions=4)
        assert region_map.region_of_point(0, 0) == 0
        assert region_map.region_of_point(100, 100) == 15
        assert region_map.region_of_point(250, 250) == 15

    def test_degenerate_extent_is_well_defined(self):
        region_map = RegionMap(5, 5, 5, 5, regions=3)
        assert region_map.region_of_point(5, 5) == 0

    def test_rejects_zero_regions(self):
        with pytest.raises(ValueError):
            RegionMap(0, 0, 1, 1, regions=0)


class TestCorridorGeometry:
    def test_point_on_segment(self):
        assert point_segment_distance(5, 0, 0, 0, 10, 0) == 0.0

    def test_perpendicular_distance(self):
        assert point_segment_distance(5, 3, 0, 0, 10, 0) == pytest.approx(3.0)

    def test_clamps_to_endpoints(self):
        assert point_segment_distance(13, 4, 0, 0, 10, 0) == pytest.approx(5.0)
        assert point_segment_distance(-3, -4, 0, 0, 10, 0) == pytest.approx(5.0)

    def test_degenerate_segment(self):
        assert point_segment_distance(3, 4, 7, 7, 7, 7) == pytest.approx(5.0)


class TestFlatDefaults:
    def test_base_policy_reproduces_legacy_decisions(self):
        policy = ForwardPolicy()
        assert policy.forward_interest(None, None) is True
        assert policy.forward_exploratory(None, None, True) is True
        assert policy.forward_exploratory(None, None, False) is False
        assert policy.reinforcement_implies_demand is False


def _oracle(mode, hierarchy=None):
    params = {
        "columns": 8,
        "rows": 8,
        "spacing": 15.0,
        "region": 4,
        "duration": 30.0,
        "send_interval": 2.0,
        "mode": mode,
        "hierarchy": hierarchy or {},
    }
    plan = ShardPlan(
        scenario="hierarchy", params=params, seed=11,
        duration=30.0, shards=1,
    )
    return run_oracle(plan)


class TestSuppression:
    def test_clustered_cuts_interest_traffic_and_still_delivers(self):
        flat = _oracle("flat")
        clustered = _oracle(
            "clustered",
            {
                "announce_interval": 8.0,
                "announce_jitter": 1.0,
                "refresh_damping": 12.0,
            },
        )
        assert (
            clustered["messages_by_class"]["interest"]
            < flat["messages_by_class"]["interest"]
        )
        assert clustered["hierarchy"]["suppressed_interests"] > 0
        assert clustered["app_delivered"] > 0

    def test_rendezvous_cuts_interest_traffic_and_still_delivers(self):
        flat = _oracle("flat")
        rendezvous = _oracle("rendezvous", {"regions": 4})
        assert (
            rendezvous["messages_by_class"]["interest"]
            < flat["messages_by_class"]["interest"]
        )
        assert rendezvous["hierarchy"]["suppressed_interests"] > 0
        assert rendezvous["app_delivered"] > 0
