"""Tests for topology and propagation models."""

import pytest

from repro.faults.overlay import FaultOverlayPropagation
from repro.radio import (
    Channel,
    DistancePropagation,
    GilbertElliotLink,
    NeighborhoodIndex,
    TablePropagation,
    Topology,
)
from repro.testbed import SensorNetwork


class TestTopology:
    def test_add_and_query(self):
        topo = Topology()
        topo.add_node(1, 0.0, 0.0)
        topo.add_node(2, 3.0, 4.0)
        assert topo.effective_distance(1, 2) == pytest.approx(5.0)

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            topo.add_node(1, 1.0, 1.0)

    def test_floor_penalty(self):
        topo = Topology(floor_penalty=12.0)
        topo.add_node(1, 0.0, 0.0, floor=0)
        topo.add_node(2, 0.0, 0.0, floor=1)
        assert topo.effective_distance(1, 2) == pytest.approx(12.0)

    def test_grid_factory(self):
        topo = Topology.grid(columns=3, rows=2, spacing=10.0)
        assert len(topo) == 6
        assert topo.effective_distance(0, 2) == pytest.approx(20.0)
        assert topo.effective_distance(0, 3) == pytest.approx(10.0)

    def test_line_factory(self):
        topo = Topology.line(4, spacing=5.0)
        assert len(topo) == 4
        assert topo.effective_distance(0, 3) == pytest.approx(15.0)

    def test_pairs_covers_all_unordered_pairs(self):
        topo = Topology.line(4)
        pairs = list(topo.pairs())
        assert len(pairs) == 6
        assert all(a < b for a, b in pairs)


class TestDistancePropagation:
    def _model(self, **kwargs):
        topo = Topology.line(2, spacing=kwargs.pop("spacing", 10.0))
        return DistancePropagation(topo, **kwargs)

    def test_full_range_is_perfect(self):
        model = self._model(full_range=20.0, max_range=35.0, asymmetry=0.0)
        assert model.link_prr(0, 1, 0.0) == pytest.approx(1.0)

    def test_beyond_max_range_is_zero(self):
        model = self._model(spacing=50.0, full_range=20.0, max_range=35.0)
        assert model.link_prr(0, 1, 0.0) == 0.0

    def test_self_link_is_zero(self):
        model = self._model()
        assert model.link_prr(0, 0, 0.0) == 0.0

    def test_decay_region_monotonic(self):
        topo = Topology.line(2, spacing=1.0)
        model = DistancePropagation(topo, full_range=10.0, max_range=30.0)
        prrs = [model.base_prr(d) for d in (10.0, 15.0, 20.0, 25.0, 30.0)]
        assert prrs[0] == 1.0
        assert prrs[-1] == 0.0
        assert all(a >= b for a, b in zip(prrs, prrs[1:]))

    def test_asymmetry_differs_by_direction(self):
        topo = Topology.line(2, spacing=25.0)
        model = DistancePropagation(
            topo, full_range=20.0, max_range=35.0, asymmetry=0.3, seed=7
        )
        forward = model.link_prr(0, 1, 0.0)
        backward = model.link_prr(1, 0, 0.0)
        assert forward != backward

    def test_asymmetry_stable_within_run(self):
        topo = Topology.line(2, spacing=25.0)
        model = DistancePropagation(topo, asymmetry=0.3, seed=7)
        assert model.link_prr(0, 1, 0.0) == model.link_prr(0, 1, 100.0)

    def test_asymmetry_deterministic_across_instances(self):
        topo = Topology.line(2, spacing=25.0)
        a = DistancePropagation(topo, asymmetry=0.3, seed=7)
        b = DistancePropagation(topo, asymmetry=0.3, seed=7)
        assert a.link_prr(0, 1, 0.0) == b.link_prr(0, 1, 0.0)

    def test_prr_clamped_to_unit_interval(self):
        topo = Topology.line(2, spacing=5.0)
        model = DistancePropagation(topo, asymmetry=0.5, seed=3)
        for t in range(10):
            assert 0.0 <= model.link_prr(0, 1, float(t)) <= 1.0

    def test_invalid_parameters(self):
        topo = Topology.line(2)
        with pytest.raises(ValueError):
            DistancePropagation(topo, full_range=30.0, max_range=20.0)
        with pytest.raises(ValueError):
            DistancePropagation(topo, asymmetry=2.0)


class TestTablePropagation:
    def test_set_and_query(self):
        model = TablePropagation()
        model.set_link(1, 2, 0.9)
        assert model.link_prr(1, 2, 0.0) == 0.9
        assert model.link_prr(2, 1, 0.0) == 0.0

    def test_symmetric_set(self):
        model = TablePropagation()
        model.set_link(1, 2, 0.8, symmetric=True)
        assert model.link_prr(2, 1, 0.0) == 0.8

    def test_constructor_links(self):
        model = TablePropagation({(1, 2): 0.5})
        assert model.link_prr(1, 2, 0.0) == 0.5

    def test_invalid_prr_rejected(self):
        model = TablePropagation()
        with pytest.raises(ValueError):
            model.set_link(1, 2, 1.5)

    def test_remove_link(self):
        model = TablePropagation({(1, 2): 0.5, (2, 1): 0.5})
        model.remove_link(1, 2, symmetric=True)
        assert model.link_prr(1, 2, 0.0) == 0.0
        assert model.link_prr(2, 1, 0.0) == 0.0


class TestGilbertElliot:
    def test_zero_base_stays_zero(self):
        base = TablePropagation()
        model = GilbertElliotLink(base)
        assert model.link_prr(1, 2, 0.0) == 0.0

    def test_good_state_preserves_base_bad_state_scales(self):
        base = TablePropagation({(1, 2): 1.0})
        model = GilbertElliotLink(base, mean_good=10.0, mean_bad=10.0,
                                  bad_scale=0.25, seed=3)
        seen = set()
        for t in range(0, 2000, 5):
            seen.add(round(model.link_prr(1, 2, float(t)), 4))
        assert seen <= {1.0, 0.25}
        assert len(seen) == 2  # both states visited over a long horizon

    def test_state_is_deterministic(self):
        base = TablePropagation({(1, 2): 1.0})
        a = GilbertElliotLink(base, seed=5)
        b = GilbertElliotLink(base, seed=5)
        times = [float(t) for t in range(0, 500, 7)]
        assert [a.link_prr(1, 2, t) for t in times] == [
            b.link_prr(1, 2, t) for t in times
        ]

    def test_invalid_dwell_times(self):
        base = TablePropagation()
        with pytest.raises(ValueError):
            GilbertElliotLink(base, mean_good=0.0)

    @pytest.mark.parametrize("bad_scale", [-0.1, 1.5])
    def test_bad_scale_outside_unit_interval_is_refused(self, bad_scale):
        with pytest.raises(ValueError, match="bad_scale"):
            GilbertElliotLink(TablePropagation(), bad_scale=bad_scale)


def _spaced_line():
    # 25 m apart: neighbours are audible, two hops (50 m) are not.
    return Topology.line(3, spacing=25.0)


BASES = {
    "distance": lambda topo: DistancePropagation(topo, seed=2),
    "table": lambda topo: TablePropagation(
        {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0, (2, 1): 1.0}
    ),
}
WRAPPERS = {
    "bare": lambda model: model,
    "gilbert": lambda model: GilbertElliotLink(model, seed=3),
    "overlay": FaultOverlayPropagation,
    "overlay+gilbert": lambda model: FaultOverlayPropagation(
        GilbertElliotLink(model, seed=3)
    ),
}
CASES = [(b, w) for b in BASES for w in WRAPPERS]


def _model(base, wrapper, topo):
    return WRAPPERS[wrapper](BASES[base](topo))


@pytest.mark.parametrize("base,wrapper", CASES)
class TestPropagationContract:
    """Every model and every stack of overlays answers the whole
    ``PropagationModel`` contract; ``None`` is an answer, not a gap."""

    def test_answers_every_member(self, base, wrapper):
        topo = _spaced_line()
        model = _model(base, wrapper, topo)
        assert model.link_prr(0, 1, 0.0) > 0.0
        assert model.link_prr_bound(0, 1) >= model.link_prr(0, 1, 0.0)
        prr, expires = model.link_prr_window(0, 1, 0.0)
        assert prr == model.link_prr(0, 1, 0.0) and expires > 0.0
        geometric = base == "distance"
        reach = model.audible_reach()
        assert reach > 0.0 if geometric else reach is None
        assert model.topology is (topo if geometric else None)
        # Nothing moved since the current token: a list when the model
        # can say so, None (unknown) for a table.
        moved = model.moved_since(model.prr_epoch())
        assert moved == ([] if geometric else None)

    def test_network_builds_a_neighborhood_index(self, base, wrapper):
        topo = _spaced_line()
        net = SensorNetwork(topo, seed=2, propagation=_model(base, wrapper, topo))
        assert type(net.channel) is Channel
        assert isinstance(net.channel.index, NeighborhoodIndex)
        assert net.channel.index.audible_from(0) == [1]
        assert net.channel.index.audible_from(1) == [0, 2]
