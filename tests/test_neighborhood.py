"""Unit tests for the radio fast path: the neighborhood index, the
active-transmitter registry, Channel.detach, and the de-correlated
default MAC rng streams."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.faults.overlay import FaultOverlayPropagation
from repro.mac import CsmaMac
from repro.radio.neighborhood import BoundaryIndex
from repro.radio import (
    Channel,
    DistancePropagation,
    GilbertElliotLink,
    Modem,
    NeighborhoodIndex,
    ReferenceChannel,
    TablePropagation,
    Topology,
)
from repro.sim import SeedSequence, Simulator


def make_net(links, n_nodes=3, channel_cls=Channel):
    sim = Simulator()
    channel = channel_cls(sim, TablePropagation(links), seeds=SeedSequence(1))
    modems = [Modem(sim, channel, node_id=i) for i in range(n_nodes)]
    return sim, channel, modems


class TestNeighborhoodIndex:
    def test_audible_and_carrier_sets(self):
        prop = TablePropagation({
            (0, 1): 1.0,
            (0, 2): 0.02,   # audible but below the carrier threshold
            (1, 0): 0.5,
        })
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        for node in (0, 1, 2):
            index.add_node(node)
        assert index.audible_from(0) == [1, 2]
        assert index.audible_from(2) == []
        # The listener's side: 0 hears 1, 1 hears 0, and 2 hears 0 too
        # weakly to ever sense its carrier.
        assert index.carrier_sources(0) == {1}
        assert index.carrier_sources(1) == {0}
        assert index.carrier_sources(2) == set()

    def test_sets_follow_attach_order(self):
        prop = TablePropagation({(0, 2): 1.0, (0, 1): 1.0})
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        for node in (2, 0, 1):  # deliberately not sorted
            index.add_node(node)
        assert index.audible_from(0) == [2, 1]

    def test_epoch_invalidation_on_move(self):
        topo = Topology()
        topo.add_node(0, 0.0, 0.0)
        topo.add_node(1, 10.0, 0.0)
        prop = DistancePropagation(topo, asymmetry=0.0)
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        index.add_node(0)
        index.add_node(1)
        assert index.audible_from(0) == [1]
        assert index.link_prr(0, 1, 0.0) == 1.0
        topo.move_node(1, 500.0, 0.0)
        assert index.audible_from(0) == []
        assert index.link_prr(0, 1, 1.0) == 0.0
        assert index.rebuilds == 1

    def test_table_edit_bumps_epoch(self):
        prop = TablePropagation({(0, 1): 1.0})
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        index.add_node(0)
        index.add_node(1)
        assert index.audible_from(0) == [1]
        prop.remove_link(0, 1)
        assert index.audible_from(0) == []

    def test_memo_hits_within_static_epoch(self):
        prop = TablePropagation({(0, 1): 0.8})
        index = NeighborhoodIndex(prop, carrier_threshold=0.05)
        index.add_node(0)
        index.add_node(1)
        for _ in range(5):
            assert index.link_prr(0, 1, float(_)) == 0.8
        assert index.memo_misses == 1
        assert index.memo_hits == 4

    def test_gilbert_window_expires_per_link(self):
        topo = Topology.line(2, spacing=5.0)
        ge = GilbertElliotLink(
            DistancePropagation(topo, asymmetry=0.0),
            mean_good=1.0, mean_bad=1.0, bad_scale=0.5, seed=3,
        )
        index = NeighborhoodIndex(ge, carrier_threshold=0.05)
        index.add_node(0)
        index.add_node(1)
        # Sample both the index and a fresh reference model over time:
        # values must agree even though the index only recomputes when a
        # link's own window lapses.
        reference = GilbertElliotLink(
            DistancePropagation(Topology.line(2, spacing=5.0), asymmetry=0.0),
            mean_good=1.0, mean_bad=1.0, bad_scale=0.5, seed=3,
        )
        times = [i * 0.25 for i in range(80)]
        got = [index.link_prr(0, 1, t) for t in times]
        want = [reference.link_prr(0, 1, t) for t in times]
        assert got == want
        assert len(set(got)) == 2          # both states were visited
        assert index.memo_hits > 0         # and the memo did real work
        assert index.memo_misses < len(times)

    def test_window_value_matches_plain_query(self):
        topo = Topology.line(3, spacing=12.0)
        prop = DistancePropagation(topo, seed=5)
        prr, expires = prop.link_prr_window(0, 1, 0.0)
        assert prr == prop.link_prr(0, 1, 0.0)
        assert expires == math.inf


THRESHOLD = Channel.CARRIER_SENSE_THRESHOLD


def fresh_index(model, members):
    index = NeighborhoodIndex(model, THRESHOLD)
    for node in members:
        index.add_node(node)
    return index


def assert_index_matches(index, model, members, senders, now=0.0):
    """``index`` (warm, repaired) answers exactly what an index built
    from scratch and a scan over every member answer, for each of
    ``senders`` — as a sender (whom it reaches) and as a listener (whose
    carrier it may sense).  ``members`` is in attach order."""
    for node, peers in index._memo_peers.items():   # no leftovers
        for peer in peers:
            assert {(node, peer), (peer, node)} & index.prr_memo.keys()
    fresh = fresh_index(model, members)
    for src in senders:
        others = [dst for dst in members if dst != src]
        audible = [d for d in others if model.link_prr_bound(src, d) > 0.0]
        carrier = {
            s for s in others if model.link_prr_bound(s, src) >= THRESHOLD
        }
        assert index.audible_from(src) == fresh.audible_from(src) == audible
        assert (
            index.carrier_sources(src)
            == fresh.carrier_sources(src)
            == carrier
        )
        for dst in members:
            for a, b in ((src, dst), (dst, src)):
                want = model.link_prr(a, b, now)
                assert index.link_prr(a, b, now) == want
                assert fresh.link_prr(a, b, now) == want


def bucketed_grid(
    columns=8, rows=8, spacing=26.0, wrap=lambda model: model,
    topology_cls=Topology,
):
    topo = topology_cls.grid(columns, rows, spacing=spacing)
    model = wrap(DistancePropagation(topo, seed=4))
    members = topo.node_ids()
    index = fresh_index(model, members)
    assert_index_matches(index, model, members, members)  # warm everything
    return topo, model, members, index


class TestBucketedBuilds:
    def test_probes_track_the_neighbourhood_not_the_network(self):
        topo, model, members, index = bucketed_grid(16, 16)
        # Both sets of all 256 senders were built: a full scan probes
        # 255 members for each, the buckets at most the 3x3 cells of
        # <= 4 grid points around the sender.
        assert index.set_builds == 2 * len(members)
        assert index.bound_probes <= index.set_builds * 35
        assert index.bound_probes < index.set_builds * len(members) / 7

    def test_table_model_scans_every_member(self):
        prop = TablePropagation({(0, 1): 1.0, (0, 2): 0.5})
        index = fresh_index(prop, [0, 1, 2, 3])
        assert index.audible_from(0) == [1, 2]
        assert index.bound_probes == 3

    def test_negative_coordinates_and_floors(self):
        topo = Topology()
        topo.add_node(0, -1.0, -1.0)
        topo.add_node(1, 1.0, 1.0)          # adjacent cell across the origin
        topo.add_node(2, -1.0, -1.0, floor=1)
        topo.add_node(3, -200.0, -200.0)
        model = DistancePropagation(topo, asymmetry=0.0)
        index = fresh_index(model, [3, 2, 1, 0])
        assert index.audible_from(0) == [2, 1]
        assert_index_matches(index, model, [3, 2, 1, 0], [0, 1, 2, 3])


class TestLocalRepair:
    def test_move_keeps_far_senders_and_links(self):
        topo, model, members, index = bucketed_grid()
        builds, misses = index.set_builds, index.memo_misses
        topo.move_node(0, 26.0 * 7, 26.0 * 7)    # corner to corner
        assert_index_matches(index, model, members, members)
        assert index.rebuilds == 1
        # 64 senders x 2 sets were cached; only the two 3x3 blocks of
        # cells the mover left and entered (reach 35 m, spacing 26 m:
        # a dozen grid points each) are rebuilt, and only links that
        # touch node 0 are asked of the model again.
        assert index.set_builds - builds < 2 * 30
        assert index.memo_misses - misses <= 2 * (len(members) - 1) + 1

    def test_detach_and_reattach_repair_a_warm_index(self):
        topo, model, members, index = bucketed_grid()
        builds = index.set_builds
        index.remove_node(27)
        members.remove(27)
        assert 27 not in index.audible_from(26)
        assert_index_matches(index, model, members, members + [27])
        index.add_node(27)
        members.append(27)                      # re-attach goes last
        assert index.audible_from(26)[-1] == 27
        assert_index_matches(index, model, members, members)
        assert index.rebuilds == 2
        assert index.set_builds - builds < 4 * 30

    def test_member_moving_next_to_a_ghost_sender(self):
        """A shard's index caches sets and links for transmitters that
        are not members; they must be repaired like any other sender."""
        topo = Topology.grid(8, 8, spacing=26.0)
        model = DistancePropagation(topo, seed=4)
        ghost, mover = 63, 0
        members = [n for n in topo.node_ids() if n != ghost]
        index = fresh_index(model, members)
        heard_before = index.audible_from(ghost)
        assert mover not in heard_before
        assert mover not in index.carrier_sources(ghost)    # cached now
        assert index.link_prr(ghost, mover, 0.0) == 0.0
        assert index.link_prr(mover, ghost, 0.0) == 0.0
        pos = topo.position(ghost)
        topo.move_node(mover, pos.x - 5.0, pos.y)
        assert index.audible_from(ghost) == [mover] + heard_before
        # The listener side is repaired too: the ghost would now sense
        # the mover's carrier (never the reverse — a ghost is no member).
        assert mover in index.carrier_sources(ghost)
        assert ghost not in index.carrier_sources(mover)
        assert index.link_prr(ghost, mover, 1.0) == 1.0
        assert_index_matches(index, model, members, members + [ghost])
        topo.move_node(mover, 0.0, 0.0)         # and away again
        assert index.audible_from(ghost) == heard_before
        assert index.link_prr(ghost, mover, 2.0) == 0.0
        assert_index_matches(index, model, members, members + [ghost])

    def test_ghost_sender_that_moves_itself(self):
        topo = Topology.grid(8, 8, spacing=26.0)
        model = DistancePropagation(topo, seed=4)
        ghost = 63
        members = [n for n in topo.node_ids() if n != ghost]
        index = fresh_index(model, members)
        assert 0 not in index.audible_from(ghost)
        assert index.link_prr(ghost, 0, 0.0) == 0.0
        topo.move_node(ghost, 5.0, 0.0)
        assert index.audible_from(ghost)[0] == 0
        assert index.link_prr(ghost, 0, 1.0) == 1.0
        assert_index_matches(index, model, members, members + [ghost])

    def test_partition_and_heal_on_a_bucketed_index(self):
        topo, model, members, index = bucketed_grid(
            wrap=FaultOverlayPropagation
        )
        assert index.bound_probes < index.set_builds * 35   # bucketed
        west = [n for n in members if n % 8 < 4]
        east = [n for n in members if n % 8 >= 4]
        model.cut("partition", [west, east])
        assert 4 not in index.audible_from(3)
        assert_index_matches(index, model, members, members)
        model.restore("partition")
        assert 4 in index.audible_from(3)
        assert_index_matches(index, model, members, members)
        # A move with the fault landscape unchanged is repaired locally.
        builds = index.set_builds
        topo.move_node(0, 26.0 * 7, 26.0 * 7)
        assert_index_matches(index, model, members, members)
        assert index.set_builds - builds < 2 * 30

    def test_boundary_index_buckets_under_a_fault_overlay(self):
        topo = Topology.grid(20, 20, spacing=25.0)
        model = FaultOverlayPropagation(DistancePropagation(topo, seed=9))
        owned = [n for n in topo.node_ids() if n % 20 < 10]
        foreign = [n for n in topo.node_ids() if n % 20 >= 10]
        boundary = BoundaryIndex(model, owned, foreign)
        boundary.boundary_senders()
        assert boundary.pair_checks < len(owned) * len(foreign) / 4


class TestUnknownChangeDropsEverything:
    """Whenever the model cannot name the movers, the index takes the
    old path — forget everything — and still answers correctly."""

    def test_index_behind_the_bounded_journal(self):
        class ShortMemory(Topology):
            JOURNAL_LIMIT = 4

        topo, model, members, index = bucketed_grid(topology_cls=ShortMemory)
        for step in range(1, 7):              # six moves, four remembered
            topo.move_node(step, 26.0 * 7, 26.0 * step)
        assert topo.moved_since(topo.version - 4) == [3, 4, 5, 6]
        assert topo.moved_since(topo.version - 5) is None
        builds = index.set_builds
        assert_index_matches(index, model, members, members)
        assert index.rebuilds == 1
        assert index.set_builds - builds == 2 * len(members)

    def test_journal_is_bounded(self):
        topo = Topology.line(2)
        for step in range(3 * Topology.JOURNAL_LIMIT):
            topo.move_node(0, float(step), 0.0)
        assert len(topo._journal) == Topology.JOURNAL_LIMIT
        assert topo.moved_since(topo.version - 2) == [0, 0]
        assert topo.moved_since(topo.version) == []

    def test_node_placed_after_warm_up(self):
        topo, model, members, index = bucketed_grid()
        version = topo.version
        topo.add_node(100, 13.0, 13.0)
        assert topo.moved_since(version) is None
        index.add_node(100)
        members.append(100)
        builds = index.set_builds
        assert index.audible_from(0)[-1] == 100
        assert_index_matches(index, model, members, members)
        assert index.set_builds - builds == 2 * len(members)
        # Moves after the placement are known again.
        topo.move_node(100, 100.0, 100.0)
        assert topo.moved_since(version + 1) == [100]

    def test_table_edit(self):
        prop = TablePropagation({(0, 1): 1.0, (2, 3): 1.0})
        members = [0, 1, 2, 3]
        index = fresh_index(prop, members)
        assert_index_matches(index, prop, members, members)
        builds = index.set_builds
        prop.set_link(0, 3, 0.5)
        assert index.audible_from(0) == [1, 3]
        assert_index_matches(index, prop, members, members)
        assert index.rebuilds == 1
        assert index.set_builds - builds == 2 * len(members)

    def test_overlay_answers_only_while_its_own_epoch_holds(self):
        topo = Topology.line(3)
        overlay = FaultOverlayPropagation(DistancePropagation(topo))
        gilbert = GilbertElliotLink(DistancePropagation(topo))
        before = overlay.prr_epoch(), gilbert.prr_epoch()
        topo.move_node(1, 3.0, 3.0)
        assert overlay.moved_since(before[0]) == [1]
        assert gilbert.moved_since(before[1]) == [1]
        overlay.cut("flap", ((0,), (1,)))
        assert overlay.moved_since(before[0]) is None
        assert GilbertElliotLink(TablePropagation()).moved_since(
            ("gilbert", 0)
        ) is None


# -- property: a repaired index is indistinguishable from a fresh one ---------

coordinate = st.floats(min_value=-45.0, max_value=45.0, allow_nan=False)
placement = st.tuples(coordinate, coordinate, st.integers(0, 1))
#: (what, which node / sender, another node, x, y): each op reads what
#: it needs; node picks are taken modulo whatever is eligible by then.
operation = st.tuples(
    st.sampled_from([
        "nudge", "move", "floor", "detach", "attach", "cut", "heal",
        "query", "query", "check",
    ]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), coordinate, coordinate,
)

#: reach 17.6 m: the 90 m square is about five cells across.
RANGES = {"full_range": 10.0, "max_range": 15.0}


def _distance(topo):
    return DistancePropagation(topo, seed=7, **RANGES)


def _gilbert(topo):
    return GilbertElliotLink(
        _distance(topo), mean_good=1.0, mean_bad=1.0, bad_scale=0.3, seed=7
    )


def _overlay(topo):
    return FaultOverlayPropagation(_distance(topo))


def _table(topo):
    """Links where the distance model has them, positions forgotten."""
    model = _distance(topo)
    return TablePropagation({
        (a, b): prr
        for a in topo.node_ids() for b in topo.node_ids()
        if a != b and (prr := model.link_prr(a, b, 0.0)) > 0.0
    })


class TestRepairedIndexProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([_distance, _gilbert, _overlay, _table]),
        st.lists(placement, min_size=2, max_size=60),
        st.integers(0, 3),
        st.lists(operation, max_size=25),
    )
    def test_matches_fresh_index_and_brute_force(
        self, make_model, placements, ghosts, operations
    ):
        topo = Topology()
        for node, (x, y, floor) in enumerate(placements):
            topo.add_node(node, x, y, floor)
        model = make_model(topo)
        nodes = topo.node_ids()
        # The last few nodes never attach: a shard's ghost transmitters.
        members = nodes[: max(1, len(nodes) - ghosts)]
        detached = []
        index = fresh_index(model, members)
        cuts = []
        now = 0.0
        for what, pick, other, x, y in operations:
            now += 0.4                  # Gilbert-Elliot windows lapse
            node = nodes[pick % len(nodes)]
            if what in ("nudge", "move", "floor"):
                if make_model is _table:
                    model.set_link(node, nodes[other % len(nodes)], 0.5)
                elif what == "nudge":   # mostly stays inside its cell
                    pos = topo.position(node)
                    topo.move_node(node, pos.x + x / 45.0, pos.y + y / 45.0)
                elif what == "move":
                    topo.move_node(node, x, y)
                else:
                    pos = topo.position(node)
                    topo.move_node(node, pos.x, pos.y, floor=1 - pos.floor)
            elif what == "detach" and len(members) > 1:
                gone = members.pop(pick % len(members))
                detached.append(gone)
                index.remove_node(gone)
            elif what == "attach" and detached:
                back = detached.pop(pick % len(detached))
                members.append(back)
                index.add_node(back)
            elif what == "cut":
                pair = (node, nodes[other % len(nodes)])
                cuts.append(pair)
                if make_model is _overlay:
                    model.cut(pair, ((pair[0],), (pair[1],)))
                elif make_model is _table:
                    model.remove_link(*pair, symmetric=True)
            elif what == "heal" and cuts and make_model is _overlay:
                model.restore(cuts.pop(pick % len(cuts)))
            elif what == "query":       # member, detached or ghost sender
                assert_index_matches(index, model, members, [node], now)
            elif what == "check":
                assert_index_matches(index, model, members, nodes, now)
        assert_index_matches(index, model, members, nodes, now)


class TestActiveRegistry:
    def test_carrier_checks_scale_with_transmitters(self):
        links = {(i, 9): 1.0 for i in range(9)}
        sim, channel, modems = make_net(links, n_nodes=10)
        channel.carrier_busy(9)
        assert channel.carrier_checks == 0  # nobody on the air
        modems[0].transmit_fragment("a", 27)
        before = channel.carrier_checks
        channel.carrier_busy(9)
        # carrier_checks counts one per (source, listener) PRR actually
        # looked up: one transmitter on the air that the listener may
        # hear -> exactly one, despite ten attached modems.
        assert channel.carrier_checks == before + 1
        # A listener with the transmitter outside its carrier-source
        # set looks nothing up at all.
        assert not channel.carrier_busy(5)
        assert channel.carrier_checks == before + 1

    def test_reference_scan_counts_all_modems(self):
        links = {(i, 9): 1.0 for i in range(9)}
        sim, channel, modems = make_net(
            links, n_nodes=10, channel_cls=ReferenceChannel
        )
        channel.carrier_busy(9)
        assert channel.carrier_checks == 9

    def test_registry_is_exactly_the_attached_modems_keyed_up(self):
        """Sampled through a run in which a radio drops off the medium
        and comes back inside its own fragment's airtime, and another
        keys up while detached."""
        links = {
            (a, b): 1.0 for a in range(4) for b in range(4) if a != b
        }
        sim, channel, modems = make_net(links, n_nodes=4)
        samples = []

        def sample():
            keyed_up = {
                node for node, modem in channel._modems.items()
                if modem.transmitting
            }
            assert channel._active == keyed_up
            samples.append(sorted(keyed_up))

        def outage(node, downtime):
            modem = channel.detach(node)
            sample()
            sim.schedule(downtime, back, modem)

        def back(modem):
            channel.attach(modem)
            sample()

        for tick in range(60):
            sim.schedule(tick * 0.001, sample)
        sim.schedule(0.000, modems[0].transmit_fragment, "a", 27)
        sim.schedule(0.004, outage, 0, 0.005)       # back mid-airtime
        sim.schedule(0.010, outage, 1, 0.012)       # keys up while out,
        sim.schedule(0.012, modems[1].transmit_fragment, "b", 27)  # back
        sim.schedule(0.030, modems[2].transmit_fragment, "c", 27)
        sim.schedule(0.035, outage, 2, 0.030)       # back after it ended
        sim.run()
        assert [0] in samples and [1] in samples and [2] in samples
        assert samples[-1] == [] and not channel._active

    def test_registry_drains_after_transmission(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        modems[0].transmit_fragment("a", 27)
        assert channel.carrier_busy(1)
        sim.run()
        assert not channel.carrier_busy(1)
        assert not channel._active


class TestDetach:
    def test_detach_removes_from_sets_and_delivery(self):
        sim, channel, modems = make_net({(0, 1): 1.0, (0, 2): 1.0})
        assert channel.index.audible_from(0) == [1, 2]
        channel.detach(1)
        assert channel.index.audible_from(0) == [2]
        got = []
        modems[2].receive_callback = lambda *args: got.append(args)
        modems[1].receive_callback = lambda *args: got.append(("dead", args))
        modems[0].transmit_fragment("x", 10)
        sim.run()
        assert got == [("x", 0, 10, None)]
        assert channel.fragments_delivered == 1

    def test_detach_voids_pending_receptions(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        modems[0].transmit_fragment("x", 10)
        channel.detach(1)  # mid-flight
        sim.run()
        assert channel.fragments_delivered == 0
        assert channel.fragments_lost == 0
        assert 1 not in channel._receiving

    def test_detach_unknown_rejected(self):
        sim, channel, modems = make_net({})
        with pytest.raises(ValueError):
            channel.detach(99)

    def test_reattach_after_detach(self):
        sim, channel, modems = make_net({(0, 1): 1.0})
        modem = channel.detach(1)
        channel.attach(modem)
        got = []
        modem.receive_callback = lambda *args: got.append(args)
        modems[0].transmit_fragment("x", 10)
        sim.run()
        assert len(got) == 1

    def test_detach_clears_active_registry(self):
        sim, channel, modems = make_net({(0, 1): 1.0, (0, 2): 1.0})
        modems[0].transmit_fragment("x", 10)
        channel.detach(0)
        assert not channel.carrier_busy(1)
        sim.run()  # the modem's tx-done event must not blow up


class TestDefaultRngStreams:
    def test_csma_default_backoffs_decorrelated(self):
        sim, channel, modems = make_net({}, n_nodes=2)
        macs = [CsmaMac(sim, modem) for modem in modems]
        draws_a = [macs[0].rng.random() for _ in range(8)]
        draws_b = [macs[1].rng.random() for _ in range(8)]
        assert draws_a != draws_b

    def test_csma_default_deterministic_per_node(self):
        first = make_net({}, n_nodes=1)
        second = make_net({}, n_nodes=1)
        mac_a = CsmaMac(first[0], first[2][0])
        mac_b = CsmaMac(second[0], second[2][0])
        assert [mac_a.rng.random() for _ in range(4)] == [
            mac_b.rng.random() for _ in range(4)
        ]
