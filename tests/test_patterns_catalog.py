"""Tests for the pattern catalog and the rush-hour workload."""

import pytest

from repro.asp.operators.source import ListSource
from repro.asp.time import minutes
from repro.mapping.advisor import recommend_options
from repro.mapping.translator import translate
from repro.patterns import CATALOG, catalog_pattern
from repro.sea.ast import Pattern
from repro.workloads import generate_rush_hour_traffic, rush_hour_profile
from repro.workloads.airquality import AirQualityConfig, aq_streams


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_entry_builds_a_valid_pattern(self, name):
        pattern = catalog_pattern(name)
        assert isinstance(pattern, Pattern)
        assert pattern.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            catalog_pattern("nope")

    def test_parameterization(self):
        pattern = catalog_pattern("traffic-congestion", quantity_threshold=95.0,
                                  window_minutes=5)
        assert "95" in pattern.where.render()
        assert pattern.window.size == minutes(5)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_entry_translates(self, name):
        """Each catalog pattern maps to an executable plan under the
        advisor-recommended options."""
        pattern = catalog_pattern(name)
        recommendation = recommend_options(pattern)
        from repro.mapping.optimizer import build_plan

        plan = build_plan(pattern, recommendation.options)
        assert plan.root is not None


class TestRushHour:
    def test_profile_peaks_at_rush_hours(self):
        assert rush_hour_profile(480) > rush_hour_profile(180)   # 8am > 3am
        assert rush_hour_profile(1050) > rush_hour_profile(780)  # 5:30pm > 1pm
        assert all(0 <= rush_hour_profile(m) <= 1 for m in range(1440))

    def test_generated_values_follow_profile(self):
        streams = generate_rush_hour_traffic(4, minutes(1440), seed=3)
        q = streams["Q"]

        def mean_at(minute):
            vals = [e.value for e in q if e.ts // minutes(1) == minute]
            return sum(vals) / len(vals)

        assert mean_at(480) > mean_at(180)

    def test_congestion_matches_cluster_in_peaks(self):
        """The paper's point: selectivity spikes at peak times — matches
        should concentrate around the rush hours."""
        streams = generate_rush_hour_traffic(4, minutes(1440), seed=5)
        pattern = catalog_pattern("traffic-congestion")
        sources = {
            t: ListSource(v, name=t, event_type=t) for t, v in streams.items()
        }
        query = translate(pattern, sources)
        query.execute()
        matches = query.matches()
        assert matches, "a full day of rush-hour traffic must congest"
        peak_matches = sum(
            1 for m in matches
            if 360 <= (m.ts_b // minutes(1)) % 1440 <= 690
            or 900 <= (m.ts_b // minutes(1)) % 1440 <= 1200
        )
        assert peak_matches / len(matches) > 0.8

    def test_cross_domain_pollution_pattern_runs(self):
        traffic = generate_rush_hour_traffic(2, minutes(240), seed=7)
        aq = aq_streams(
            AirQualityConfig(num_sensors=2, duration_ms=minutes(240), seed=7),
            types=("PM10",),
        )
        pattern = catalog_pattern("vehicle-pollution-alert")
        sources = {
            t: ListSource(v, name=t, event_type=t)
            for t, v in {**traffic, **aq}.items()
        }
        query = translate(pattern, sources)
        result = query.execute()
        assert not result.failed
