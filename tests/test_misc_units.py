"""Coverage for small units not exercised elsewhere: the key registry,
stats counters, and modem bookkeeping."""

import pytest

from repro.naming import MatchStats
from repro.naming.keys import (
    ClassValue,
    Key,
    KeyRegistry,
    STANDARD_KEYS,
    key_name,
)


class TestKeyRegistry:
    def test_well_known_keys_preregistered(self):
        registry = KeyRegistry()
        assert int(Key.TYPE) in registry
        assert registry.name(Key.TYPE) == "type"
        assert registry.name(Key.X_COORD) == "x_coord"

    def test_register_allocates_user_keys(self):
        registry = KeyRegistry()
        first = registry.register("soil-moisture")
        second = registry.register("ph")
        assert first >= int(Key.FIRST_USER_KEY)
        assert second == first + 1
        assert registry.name(first) == "soil-moisture"

    def test_unknown_key_gets_fallback_name(self):
        registry = KeyRegistry()
        assert registry.name(987654) == "key987654"

    def test_iteration_covers_registrations(self):
        registry = KeyRegistry()
        custom = registry.register("custom")
        assert custom in set(iter(registry))

    def test_module_level_helpers(self):
        assert key_name(Key.CONFIDENCE) == "confidence"
        assert int(Key.CLASS) in STANDARD_KEYS

    def test_class_values_distinct(self):
        values = [int(v) for v in ClassValue]
        assert len(values) == len(set(values))


class TestStatsResets:
    def test_match_stats_reset(self):
        stats = MatchStats(formals_tested=3, comparisons=9)
        stats.reset()
        assert stats.formals_tested == 0
        assert stats.comparisons == 0


class TestModemBookkeeping:
    def test_turnaround_constant_positive(self):
        from repro.radio.modem import TURNAROUND_S

        assert TURNAROUND_S > 0

    def test_rx_counters_track_all_audible_traffic(self):
        """Unicast frames destined elsewhere still cost receive energy
        and count as fragments heard (the radio cannot know in advance)."""
        from repro.radio import Channel, Modem, TablePropagation
        from repro.sim import SeedSequence, Simulator

        sim = Simulator()
        channel = Channel(
            sim, TablePropagation({(0, 1): 1.0, (0, 2): 1.0}),
            seeds=SeedSequence(1),
        )
        modems = [Modem(sim, channel, node_id=i) for i in range(3)]
        modems[0].transmit_fragment("to-1", 10, link_dst=1)
        sim.run()
        assert modems[2].fragments_received == 1
        assert modems[2].bytes_received == 10
