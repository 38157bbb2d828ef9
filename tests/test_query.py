"""Tests for the query language and query proxy."""

import pytest

from repro.core import DiffusionConfig, DiffusionNode, DiffusionRouting
from repro.naming import AttributeVector, Operator
from repro.naming.keys import Key
from repro.query import QueryProxy, QuerySyntaxError, parse_query
from repro.sim import Simulator
from repro.testbed import IdealNetwork


class TestParser:
    def test_minimal_query(self):
        q = parse_query("SELECT audio")
        assert q.select_type == "audio"
        assert q.conditions == []
        assert q.every_ms is None

    def test_where_comparisons(self):
        q = parse_query("SELECT seismic WHERE confidence > 0.5 AND x <= 100")
        assert len(q.conditions) == 2
        assert q.conditions[0].op is Operator.GT
        assert q.conditions[0].value == 0.5
        assert q.conditions[1].op is Operator.LE
        assert q.conditions[1].value == 100

    def test_between_folds_to_ge_le(self):
        q = parse_query("SELECT t WHERE x BETWEEN 0 AND 20")
        assert len(q.conditions) == 2
        assert q.conditions[0].op is Operator.GE
        assert q.conditions[0].value == 0
        assert q.conditions[1].op is Operator.LE
        assert q.conditions[1].value == 20

    def test_every_and_for(self):
        q = parse_query("SELECT t EVERY 2s FOR 10m")
        assert q.every_ms == 2000
        assert q.for_seconds == 600

    def test_every_milliseconds(self):
        assert parse_query("SELECT t EVERY 500ms").every_ms == 500

    def test_duration_with_space(self):
        assert parse_query("SELECT t EVERY 2 s").every_ms == 2000

    def test_string_values(self):
        q = parse_query("SELECT t WHERE instance = 'light-16'")
        assert q.conditions[0].value == "light-16"
        q2 = parse_query('SELECT t WHERE target = "4-leg"')
        assert q2.conditions[0].value == "4-leg"

    def test_bare_identifier_value(self):
        q = parse_query("SELECT t WHERE target = lion")
        assert q.conditions[0].value == "lion"

    def test_case_insensitive_keywords(self):
        q = parse_query("select audio where x > 1 every 1s for 5s")
        assert q.select_type == "audio"
        assert q.every_ms == 1000

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "WHERE x > 1",
            "SELECT",
            "SELECT t WHERE bogus > 1",
            "SELECT t WHERE x ~ 1",
            "SELECT t WHERE x BETWEEN 20 AND 0",
            "SELECT t WHERE x BETWEEN 'a' AND 'b'",
            "SELECT t EVERY -2s",
            "SELECT t EVERY bananas",
            "SELECT t garbage trailing",
            "SELECT t WHERE x > 1 AND",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)

    def test_compiles_to_interest(self):
        q = parse_query(
            "SELECT audio WHERE x BETWEEN 0 AND 50 AND confidence > 0.5 "
            "EVERY 2s FOR 60s"
        )
        interest = q.to_interest()
        assert interest.find(Key.TYPE, Operator.EQ).value == "audio"
        assert interest.find(Key.X_COORD, Operator.GE).value == 0.0
        assert interest.find(Key.X_COORD, Operator.LE).value == 50.0
        assert interest.find(Key.CONFIDENCE, Operator.GT).value == 0.5
        assert interest.value_of(Key.INTERVAL) == 2000
        assert interest.value_of(Key.DURATION) == 60

    def test_interest_matches_conforming_data(self):
        from repro.naming import one_way_match

        interest = parse_query(
            "SELECT audio WHERE x BETWEEN 0 AND 50 AND confidence > 0.5"
        ).to_interest()
        good = (
            AttributeVector.builder()
            .actual(Key.TYPE, "audio")
            .actual(Key.X_COORD, 25.0)
            .actual(Key.CONFIDENCE, 0.9)
            .build()
        )
        bad = good.replace_actual(Key.X_COORD, 60.0)
        assert one_way_match(list(interest), list(good))
        assert not one_way_match(list(interest), list(bad))


def build_net(n=3):
    sim = Simulator()
    net = IdealNetwork(sim, delay=0.01)
    apis = {}
    config = DiffusionConfig(reinforcement_jitter=0.05)
    for i in range(n):
        node = DiffusionNode(sim, i, net.add_node(i), config=config)
        apis[i] = DiffusionRouting(node)
    for i in range(n - 1):
        net.connect(i, i + 1)
    return sim, apis


def run_sensor(sim, api, x, confidence, count=4):
    pub = api.publish(
        AttributeVector.builder()
        .actual(Key.TYPE, "audio")
        .actual(Key.X_COORD, x)
        .build()
    )
    for i in range(count):
        sim.schedule(
            1.0 + i, api.send, pub,
            AttributeVector.builder()
            .actual(Key.CONFIDENCE, confidence)
            .actual(Key.SEQUENCE, i)
            .build(),
        )


class TestQueryProxy:
    def test_query_returns_matching_rows(self):
        sim, apis = build_net()
        proxy = QueryProxy(apis[0])
        handle = proxy.submit(
            "SELECT audio WHERE x BETWEEN 0 AND 50 AND confidence > 0.5"
        )
        run_sensor(sim, apis[2], x=25.0, confidence=0.9)
        sim.run(until=10.0)
        assert handle.row_count == 4
        row = handle.results[0]
        assert row["x"] == 25.0
        assert row["confidence"] == 0.9
        assert row["type"] == "audio"

    def test_non_matching_data_excluded(self):
        sim, apis = build_net()
        proxy = QueryProxy(apis[0])
        handle = proxy.submit("SELECT audio WHERE x BETWEEN 0 AND 10")
        run_sensor(sim, apis[2], x=25.0, confidence=0.9)  # outside region
        sim.run(until=10.0)
        assert handle.row_count == 0

    def test_for_duration_expires_query(self):
        sim, apis = build_net()
        proxy = QueryProxy(apis[0])
        handle = proxy.submit("SELECT audio FOR 5s")
        run_sensor(sim, apis[2], x=1.0, confidence=0.5, count=10)
        sim.run(until=30.0)
        assert handle.stopped
        # Rows stop accumulating once the query expires.
        assert all(r.time <= 5.5 for r in handle.results)

    def test_stop_is_idempotent(self):
        sim, apis = build_net()
        proxy = QueryProxy(apis[0])
        handle = proxy.submit("SELECT audio")
        proxy.stop(handle)
        proxy.stop(handle)
        assert handle.stopped

    def test_on_result_callback(self):
        sim, apis = build_net()
        proxy = QueryProxy(apis[0])
        seen = []
        proxy.submit("SELECT audio", on_result=seen.append)
        run_sensor(sim, apis[2], x=1.0, confidence=0.5, count=2)
        sim.run(until=10.0)
        assert len(seen) == 2
        assert seen[0]["sequence"] == 0

    def test_multiple_concurrent_queries(self):
        sim, apis = build_net()
        proxy = QueryProxy(apis[0])
        wide = proxy.submit("SELECT audio")
        narrow = proxy.submit("SELECT audio WHERE confidence > 0.95")
        run_sensor(sim, apis[2], x=1.0, confidence=0.5, count=3)
        sim.run(until=10.0)
        assert wide.row_count == 3
        assert narrow.row_count == 0
        assert len(proxy.queries) == 2
