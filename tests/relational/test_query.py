"""Tests for SPJ query representation and execution."""

import math

import pytest

from repro.relational.expressions import (
    ComparisonPredicate,
    Conjunction,
    InPredicate,
    RangePredicate,
    TruePredicate,
)
from repro.relational import query as query_module
from repro.relational.query import SelectQuery
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType


@pytest.fixture
def table():
    schema = TableSchema(
        "Homes",
        (Attribute("city", DataType.TEXT), Attribute("price", DataType.INT)),
    )
    t = Table(schema)
    t.extend(
        [
            {"city": "Seattle", "price": 300},
            {"city": "Bellevue", "price": 500},
            {"city": "Seattle", "price": 700},
        ]
    )
    return t


class TestConditions:
    def test_empty_query_has_no_conditions(self):
        assert SelectQuery("Homes").conditions() == {}

    def test_conditions_are_per_attribute(self):
        query = SelectQuery(
            "Homes",
            Conjunction(
                [
                    InPredicate("city", ["Seattle"]),
                    ComparisonPredicate("price", "<=", 500),
                ]
            ),
        )
        conditions = query.conditions()
        assert set(conditions) == {"city", "price"}
        assert isinstance(conditions["price"], RangePredicate)

    def test_range_on(self):
        query = SelectQuery("Homes", RangePredicate("price", 100, 500))
        assert query.range_on("price") == (100, 500)

    def test_range_on_one_sided(self):
        query = SelectQuery("Homes", ComparisonPredicate("price", "<=", 500))
        low, high = query.range_on("price")
        assert math.isinf(low) and high == 500

    def test_range_on_absent(self):
        assert SelectQuery("Homes").range_on("price") is None

    def test_values_on(self):
        query = SelectQuery("Homes", InPredicate("city", ["Seattle", "Bellevue"]))
        assert query.values_on("city") == frozenset({"Seattle", "Bellevue"})

    def test_values_on_absent(self):
        assert SelectQuery("Homes").values_on("city") is None


class TestNormalizeOnce:
    """The canonical conditions are computed once per query."""

    @pytest.fixture
    def normalize_calls(self, monkeypatch):
        calls = []
        real = query_module.normalize

        def counting(predicate):
            calls.append(predicate)
            return real(predicate)

        monkeypatch.setattr(query_module, "normalize", counting)
        return calls

    @staticmethod
    def _query():
        return SelectQuery(
            "Homes",
            Conjunction(
                [
                    InPredicate("city", ["Seattle"]),
                    ComparisonPredicate("price", ">=", 100),
                    ComparisonPredicate("price", "<", 500),
                ]
            ),
        )

    def test_repeated_lookups_normalize_once(self, normalize_calls):
        query = self._query()
        for _ in range(3):
            assert query.range_on("price") == (100.0, 500.0)
            assert query.values_on("city") == frozenset({"Seattle"})
            assert query.condition_on("bedrooms") is None
            assert set(query.conditions()) == {"city", "price"}
        assert len(normalize_calls) == 1

    def test_normalized_query_reuses_the_split(self, normalize_calls):
        query = self._query()
        canonical = query.normalized()
        assert canonical.conditions() == query.conditions()
        assert canonical.range_on("price") == query.range_on("price")
        assert len(normalize_calls) == 1

    def test_workload_entry_normalizes_once(self, normalize_calls):
        from repro.workload.model import WorkloadQuery

        entry = WorkloadQuery.from_sql(
            "SELECT * FROM Homes WHERE price >= 100 AND price < 500 AND city = 'a'"
        )
        assert entry.range_bounds("price") == (100.0, 500.0)
        assert entry.query.values_on("city") == frozenset({"a"})
        assert len(normalize_calls) == 1

    def test_each_caller_gets_its_own_dict(self):
        query = self._query()
        query.conditions().clear()
        assert set(query.conditions()) == {"city", "price"}
        assert query.values_on("city") == frozenset({"Seattle"})


class TestExecution:
    def test_execute_selects(self, table):
        query = SelectQuery("Homes", InPredicate("city", ["Seattle"]))
        assert len(query.execute(table)) == 2

    def test_execute_true_returns_all(self, table):
        assert len(SelectQuery("Homes").execute(table)) == 3

    def test_wrong_table_name_rejected(self, table):
        with pytest.raises(ValueError, match="targets table"):
            SelectQuery("Other").execute(table)

    def test_unknown_attribute_rejected(self, table):
        query = SelectQuery("Homes", InPredicate("bogus", ["x"]))
        with pytest.raises(ValueError, match="unknown attributes"):
            query.execute(table)

    def test_unknown_projection_rejected(self, table):
        query = SelectQuery("Homes", projection=("bogus",))
        with pytest.raises(KeyError):
            query.execute(table)

    def test_conjunction_execution(self, table):
        query = SelectQuery(
            "Homes",
            Conjunction(
                [InPredicate("city", ["Seattle"]), RangePredicate("price", 0, 400)]
            ),
        )
        result = query.execute(table)
        assert [r["price"] for r in result] == [300]


class TestDisplay:
    def test_str_without_where(self):
        assert str(SelectQuery("Homes")) == "SELECT * FROM Homes"

    def test_str_with_projection(self):
        query = SelectQuery("Homes", projection=("city", "price"))
        assert str(query) == "SELECT city, price FROM Homes"

    def test_str_with_where(self):
        query = SelectQuery("Homes", RangePredicate("price", 1, 2))
        assert "WHERE" in str(query)

    def test_normalized_is_equivalent(self, table):
        query = SelectQuery(
            "Homes",
            Conjunction(
                [
                    ComparisonPredicate("price", ">=", 400),
                    ComparisonPredicate("price", "<=", 600),
                ]
            ),
        )
        raw = {r.index for r in query.execute(table)}
        normalized = {r.index for r in query.normalized().execute(table)}
        assert raw == normalized

    def test_normalized_predicate_is_canonical(self):
        query = SelectQuery("Homes", ComparisonPredicate("price", ">=", 400))
        assert isinstance(query.normalized().predicate, RangePredicate)

    def test_default_predicate_is_true(self):
        assert isinstance(SelectQuery("Homes").predicate, TruePredicate)
