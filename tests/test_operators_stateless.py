"""Tests for the stateless operators: filter, map, union, key-by."""

import pytest

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.operators.base import constituents, item_ts
from repro.asp.operators.filter import FilterOperator, TypeFilterOperator
from repro.asp.operators.keyby import (
    KeyByOperator,
    key_by_attribute,
    partition_for,
    stable_hash,
)
from repro.asp.operators.map import (
    FlatMapOperator,
    KeyAssignOperator,
    MapOperator,
    SchemaAlignOperator,
)
from repro.asp.operators.union import UnionOperator


class TestItemHelpers:
    def test_item_ts_event(self):
        assert item_ts(Event("Q", ts=5)) == 5

    def test_item_ts_complex_uses_assigned_ts(self):
        ce = ComplexEvent((Event("Q", ts=5), Event("V", ts=9)), ts=9)
        assert item_ts(ce) == 9

    def test_constituents_event_is_itself(self):
        e = Event("Q", ts=1)
        assert constituents(e) == (e,)

    def test_constituents_complex_flattens(self):
        events = (Event("Q", ts=1), Event("V", ts=2))
        assert constituents(ComplexEvent(events)) == events


class TestFilterOperator:
    def test_passes_and_drops(self):
        op = FilterOperator(lambda e: e.value > 10)
        assert op.process_batch([Event("Q", ts=1, value=20)]) == [Event("Q", ts=1, value=20)]
        assert op.process_batch([Event("Q", ts=2, value=5)]) == []
        assert op.passed == 1 and op.dropped == 1

    def test_observed_selectivity(self):
        op = FilterOperator(lambda e: e.value > 0)
        assert op.observed_selectivity == 0.0
        op.process_batch([Event("Q", ts=1, value=1)])
        op.process_batch([Event("Q", ts=2, value=-1)])
        assert op.observed_selectivity == 0.5

    def test_type_filter(self):
        op = TypeFilterOperator("Q")
        assert op.process_batch([Event("Q", ts=1)])
        assert not op.process_batch([Event("V", ts=1)])

    def test_stateless(self):
        assert not FilterOperator(lambda e: True).is_stateful


class TestMapOperators:
    def test_map_applies_fn(self):
        op = MapOperator(lambda e: e.with_attrs(value=e.value * 2))
        (out,) = op.process_batch([Event("Q", ts=1, value=3)])
        assert out.value == 6

    def test_flat_map_multiple_outputs(self):
        op = FlatMapOperator(lambda e: [e, e])
        assert len(op.process_batch([Event("Q", ts=1)])) == 2

    def test_flat_map_zero_outputs(self):
        op = FlatMapOperator(lambda e: [])
        assert op.process_batch([Event("Q", ts=1)]) == []

    def test_schema_align_renames(self):
        op = SchemaAlignOperator(renames={"value": "speed"})
        (out,) = op.process_batch([Event("V", ts=1, value=80.0)])
        assert out["speed"] == 80.0

    def test_schema_align_rewrites_type(self):
        op = SchemaAlignOperator(target_type="UNIFIED")
        (out,) = op.process_batch([Event("V", ts=1)])
        assert out.event_type == "UNIFIED"

    def test_schema_align_defaults_only_fill_missing(self):
        op = SchemaAlignOperator(defaults={"value": 1.0, "extra": 9})
        (out,) = op.process_batch([Event("V", ts=1, value=5.0)])
        assert out.value == 5.0  # present: untouched
        assert out["extra"] == 9

    def test_schema_align_passes_complex_events(self):
        ce = ComplexEvent((Event("Q", ts=1),))
        op = SchemaAlignOperator(target_type="X")
        assert op.process_batch([ce]) == [ce]

    def test_key_assign_uniform(self):
        op = KeyAssignOperator()
        (out,) = op.process_batch([Event("Q", ts=1)])
        assert out["partition_key"] == KeyAssignOperator.CARTESIAN_KEY

    def test_key_assign_custom(self):
        op = KeyAssignOperator(key_fn=lambda e: e.id)
        (out,) = op.process_batch([Event("Q", ts=1, id=7)])
        assert out["partition_key"] == 7


class TestUnionOperator:
    def test_forwards_from_all_ports(self):
        op = UnionOperator(arity=2)
        a, b = Event("Q", ts=1), Event("V", ts=2)
        assert op.process_batch([a], port=0) == [a]
        assert op.process_batch([b], port=1) == [b]
        assert op.counts == [1, 1]

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError):
            UnionOperator(arity=2).process_batch([Event("Q", ts=1)], port=2)

    def test_invalid_arity_rejected(self):
        with pytest.raises(ValueError):
            UnionOperator(arity=0)


class TestKeyPartitioning:
    def test_stable_hash_deterministic_for_strings(self):
        assert stable_hash("sensor-1") == stable_hash("sensor-1")
        assert stable_hash("a") != stable_hash("b")

    def test_stable_hash_nonnegative(self):
        for key in (-5, "x", 3.5):
            assert stable_hash(key) >= 0

    def test_partition_for_in_range(self):
        for key in range(100):
            assert 0 <= partition_for(key, 7) < 7

    def test_consecutive_int_keys_fill_every_partition(self):
        assert [partition_for(key, 4) for key in range(8)] == [0, 1, 2, 3] * 2

    def test_partition_for_invalid(self):
        with pytest.raises(ValueError):
            partition_for(1, 0)

    def test_key_by_attribute_on_complex_event(self):
        selector = key_by_attribute("id")
        ce = ComplexEvent((Event("Q", ts=1, id=9), Event("V", ts=2, id=9)))
        assert selector(ce) == 9

    def test_key_by_operator_records_keys(self):
        op = KeyByOperator(key_by_attribute("id"))
        op.process_batch([Event("Q", ts=1, id=1)])
        op.process_batch([Event("Q", ts=2, id=2)])
        assert op.seen_keys == {1, 2}
