"""Flat-mode bit-identity and sharded-vs-oracle equivalence.

The two non-negotiables of the hierarchy layer: installing nothing
(flat mode) must leave the classic stack bit-identical, and the
sharded kernel must agree with the single-queue oracle in every mode.
"""

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


def flat_equivalence(columns, rows, region, duration, seed):
    """Flat-mode hierarchy outcome vs the classic regional scenario.

    The hierarchy scenario with ``mode=flat`` installs no policy; the
    keys both scenarios share must match bit for bit, or the hooks in
    the diffusion core are not inert.
    """
    shared = dict(
        columns=columns, rows=rows, spacing=15.0, region=region,
        duration=duration, send_interval=2.0,
    )
    classic = run_oracle(
        ShardPlan(
            scenario="regional", params=dict(shared), seed=seed,
            duration=duration, shards=1,
        )
    )
    flat = run_oracle(
        ShardPlan(
            scenario="hierarchy", params=dict(shared, mode="flat"),
            seed=seed, duration=duration, shards=1,
        )
    )
    flat_subset = {key: flat[key] for key in classic}
    return flat_subset == classic, classic, flat_subset


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
        # Heads were elected, and the election converged: not every
        # node still claims headship.
        assert 0 < oracle["hierarchy"]["heads"] < 8 * 8
        assert oracle["app_delivered"] > 0

    def test_rendezvous_sharded_matches_oracle(self):
        hierarchy = {"regions": 3}
        oracle = run_oracle(_plan("rendezvous", hierarchy, shards=1))
        sharded = run_sharded(_plan("rendezvous", hierarchy, shards=2))
        assert sharded["outcome"] == oracle
        assert oracle["hierarchy"]["suppressed_interests"] > 0
        assert oracle["app_delivered"] > 0
