"""Flat-mode bit-identity and sharded-vs-oracle equivalence.

The two non-negotiables of the hierarchy layer: installing nothing
(flat mode) must leave the classic stack bit-identical, and the
sharded kernel must agree with the single-queue oracle in every mode.
"""

from repro.experiments.hierarchybench import flat_equivalence
from repro.shard import ShardPlan, run_oracle, run_sharded


def _params(mode, hierarchy):
    return {
        "columns": 8,
        "rows": 8,
        "spacing": 15.0,
        "region": 4,
        "duration": 20.0,
        "send_interval": 2.0,
        "mode": mode,
        "hierarchy": hierarchy,
    }


def _plan(mode, hierarchy, shards):
    return ShardPlan(
        scenario="hierarchy",
        params=_params(mode, hierarchy),
        seed=5,
        duration=20.0,
        shards=shards,
    )


class TestFlatBitIdentity:
    def test_flat_mode_matches_classic_regional_scenario(self):
        identical, classic, flat = flat_equivalence(
            columns=8, rows=8, region=4, duration=20.0, seed=13
        )
        assert identical, (
            "hierarchy scenario in flat mode diverged from the classic "
            f"regional scenario:\nclassic={classic}\nflat={flat}"
        )


class TestShardedEquivalence:
    def test_clustered_sharded_matches_oracle(self):
        hierarchy = {
            "announce_interval": 6.0,
            "announce_jitter": 1.0,
            "refresh_damping": 10.0,
        }
        oracle = run_oracle(_plan("clustered", hierarchy, shards=1))
        sharded = run_sharded(_plan("clustered", hierarchy, shards=2))
        assert sharded["outcome"] == oracle
        assert oracle["hierarchy"]["heads"] > 0

    def test_rendezvous_sharded_matches_oracle(self):
        hierarchy = {"regions": 3}
        oracle = run_oracle(_plan("rendezvous", hierarchy, shards=1))
        sharded = run_sharded(_plan("rendezvous", hierarchy, shards=2))
        assert sharded["outcome"] == oracle
        assert oracle["app_delivered"] > 0
