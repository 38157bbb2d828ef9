"""Tests for ASCII charts and the ideal-transport chain builder."""

import pytest

from repro.analysis.charts import bar_chart, line_chart
from repro.core import DiffusionConfig
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.testbed import ideal_line


class TestLineChart:
    def test_renders_all_series_markers(self):
        chart = line_chart(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            width=20,
            height=8,
        )
        assert "o=a" in chart
        assert "x=b" in chart
        assert "o" in chart.splitlines()[0] or any(
            "o" in line for line in chart.splitlines()
        )

    def test_title_and_labels(self):
        chart = line_chart(
            {"s": [(0, 5), (10, 15)]},
            title="T", x_label="X", y_label="Y",
        )
        assert chart.splitlines()[0] == "T"
        assert "X" in chart
        assert "Y" in chart

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": []})

    def test_flat_series_does_not_crash(self):
        chart = line_chart({"a": [(0, 5.0), (1, 5.0)]})
        assert "o" in chart

    def test_axis_extremes_labelled(self):
        chart = line_chart({"a": [(2, 10), (8, 90)]}, width=30, height=6)
        assert "90" in chart
        assert "10" in chart
        assert "2" in chart
        assert "8" in chart


class TestBarChart:
    def test_bars_proportional(self):
        chart = bar_chart({"small": 1.0, "big": 10.0}, width=20)
        lines = chart.splitlines()
        small = next(l for l in lines if l.strip().startswith("small"))
        big = next(l for l in lines if l.strip().startswith("big"))
        assert big.count("#") > small.count("#")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_zero_values(self):
        chart = bar_chart({"a": 0.0, "b": 0.0})
        assert "#" not in chart


class TestScenarios:
    def test_ideal_line_builder(self):
        sim, net, nodes, apis = ideal_line(
            2, config=DiffusionConfig(reinforcement_jitter=0.05)
        )
        assert sorted(nodes) == [0, 1, 2]
        received = []
        sub = AttributeVector.builder().eq(Key.TYPE, "x").build()
        apis[0].subscribe(sub, lambda a, m: received.append(a))
        pub = apis[2].publish(
            AttributeVector.builder().actual(Key.TYPE, "x").build()
        )
        sim.schedule(1.0, apis[2].send, pub,
                     AttributeVector.builder().actual(Key.SEQUENCE, 1).build())
        sim.run(until=5.0)
        assert len(received) == 1
