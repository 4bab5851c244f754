"""Tests for the column-store Table and RowSet views."""

from array import array

import pytest

from repro.core.memo import memo_of, memoized
from repro.relational.expressions import InPredicate, RangePredicate, TruePredicate
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType


@pytest.fixture
def table():
    schema = TableSchema(
        "Homes",
        (
            Attribute("city", DataType.TEXT),
            Attribute("price", DataType.INT),
        ),
    )
    t = Table(schema)
    t.extend(
        [
            {"city": "Seattle", "price": 300},
            {"city": "Bellevue", "price": 500},
            {"city": "Seattle", "price": 400},
            {"city": "Redmond", "price": None},
        ]
    )
    return t


class TestTable:
    def test_len(self, table):
        assert len(table) == 4

    def test_row_access(self, table):
        assert table.row(1)["city"] == "Bellevue"

    def test_row_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.row(4)

    def test_row_is_mapping(self, table):
        row = table.row(0)
        assert dict(row) == {"city": "Seattle", "price": 300}
        assert len(row) == 2

    def test_insert_coerces(self, table):
        table.insert({"city": "Kirkland", "price": "250"})
        assert table.row(4)["price"] == 250

    def test_insert_unknown_attribute_rejected(self, table):
        with pytest.raises(KeyError, match="unknown attributes"):
            table.insert({"city": "X", "bogus": 1})

    def test_missing_attribute_becomes_null(self, table):
        table.insert({"city": "Kirkland"})
        assert table.row(4)["price"] is None

    def test_column_access(self, table):
        assert list(table.column("price")) == [300, 500, 400, None]

    def test_column_unknown_raises(self, table):
        with pytest.raises(KeyError, match="available"):
            table.column("bogus")

    def test_iteration_yields_all_rows(self, table):
        assert sum(1 for _ in table) == 4

    def test_to_dicts(self, table):
        dicts = table.to_dicts()
        assert dicts[1] == {"city": "Bellevue", "price": 500}


class TestRowSetSelection:
    def test_select_in(self, table):
        rows = table.select(InPredicate("city", ["Seattle"]))
        assert len(rows) == 2

    def test_select_range(self, table):
        rows = table.select(RangePredicate("price", 350, 600))
        assert {r["city"] for r in rows} == {"Bellevue", "Seattle"}

    def test_select_true_returns_same_view(self, table):
        view = table.all_rows()
        assert view.select(TruePredicate()) is view

    def test_null_excluded_from_range(self, table):
        rows = table.select(RangePredicate("price", 0, 10_000))
        assert len(rows) == 3

    def test_chained_selection(self, table):
        rows = table.select(InPredicate("city", ["Seattle"]))
        narrowed = rows.select(RangePredicate("price", 350, 600))
        assert len(narrowed) == 1
        assert narrowed.to_dicts()[0]["price"] == 400

    def test_empty_rowset_falsy(self, table):
        rows = table.select(InPredicate("city", ["Nowhere"]))
        assert not rows
        assert len(rows) == 0


class TestRowSetOperations:
    def test_partition_by(self, table):
        parts = table.all_rows().partition_by(lambda r: r["city"])
        assert set(parts) == {"Seattle", "Bellevue", "Redmond"}
        assert len(parts["Seattle"]) == 2

    def test_partition_by_drops_none_keys(self, table):
        parts = table.all_rows().partition_by(lambda r: r["price"])
        assert None not in parts
        assert sum(len(p) for p in parts.values()) == 3

    def test_partition_preserves_disjointness(self, table):
        parts = table.all_rows().partition_by(lambda r: r["city"])
        all_indices = [i for p in parts.values() for i in p.indices]
        assert len(all_indices) == len(set(all_indices))

    def test_values(self, table):
        assert table.all_rows().values("price") == [300, 500, 400, None]

    def test_indices_refer_to_base_table(self, table):
        rows = table.select(InPredicate("city", ["Seattle"]))
        assert rows.indices == (0, 2)


class TestGroupbyIndex:
    def test_maps_value_to_ascending_indices(self, table):
        index = table.groupby_index("city")
        assert list(index["Seattle"]) == [0, 2]
        assert list(index["Bellevue"]) == [1]
        assert list(index["Redmond"]) == [3]
        assert all(
            type(ids) is array and ids.typecode == "i" for ids in index.values()
        )

    def test_nulls_grouped_under_none(self, table):
        index = table.groupby_index("price")
        assert list(index[None]) == [3]

    def test_cached_instance_reused(self, table):
        assert table.groupby_index("city") is table.groupby_index("city")

    def test_insert_invalidates(self, table):
        before = table.groupby_index("city")
        table.insert({"city": "Seattle", "price": 700})
        after = table.groupby_index("city")
        assert after is not before
        assert list(after["Seattle"]) == [0, 2, 4]

    def test_unknown_attribute_raises(self, table):
        with pytest.raises(KeyError):
            table.groupby_index("bogus")


class TestRowSetAscending:
    def test_all_rows_ascending(self, table):
        assert table.all_rows().is_ascending

    def test_selection_stays_ascending(self, table):
        assert table.select(InPredicate("city", ["Seattle"])).is_ascending

    def test_shuffled_view_not_ascending(self, table):
        from repro.relational.table import RowSet

        assert not RowSet(table, (2, 0, 1)).is_ascending

    def test_empty_and_singleton_ascending(self, table):
        from repro.relational.table import RowSet

        assert RowSet(table, ()).is_ascending
        assert RowSet(table, (2,)).is_ascending


class TestRowSetDerive:
    """What a build derives from a row-set view is filed in that view's
    memo (``repro.core.memo``): built once per view and key."""

    def test_build_once_then_served_from_cache(self, table):
        rows = table.all_rows()
        memos = {rows: {}}
        calls = []

        def build():
            calls.append(1)
            return [1, 2, 3]

        first = memoized(memo_of(memos, rows), "key", build)
        second = memoized(memo_of(memos, rows), "key", build)
        assert first is second
        assert len(calls) == 1
        # Without a memo every call builds afresh.
        assert memoized(memo_of(None, rows), "key", build) is not first
        assert len(calls) == 2

    def test_distinct_keys_independent(self, table):
        rows = table.all_rows()
        memo = memo_of({rows: {}}, rows)
        assert memoized(memo, "a", lambda: "A") == "A"
        assert memoized(memo, "b", lambda: "B") == "B"

    def test_caches_none_results(self, table):
        rows = table.all_rows()
        memo = memo_of({rows: {}}, rows)
        calls = []

        def build():
            calls.append(1)
            return None

        assert memoized(memo, "nothing", build) is None
        assert memoized(memo, "nothing", build) is None
        assert len(calls) == 1

    def test_views_do_not_share_caches(self, table):
        everything = table.all_rows()
        subset = table.select(InPredicate("city", ["Seattle"]))
        memos = {everything: {}, subset: {}}
        memoized(memo_of(memos, everything), "k", lambda: "all")
        assert memoized(memo_of(memos, subset), "k", lambda: "sub") == "sub"


class TestInsertAtomicity:
    def test_failed_coercion_leaves_table_unchanged(self, table):
        size = len(table)
        with pytest.raises((TypeError, ValueError)):
            table.insert({"city": "Kirkland", "price": "not-a-number"})
        assert len(table) == size
        # Columns must not be torn: a subsequent good insert stays aligned.
        table.insert({"city": "Kirkland", "price": 700})
        assert table.row(len(table) - 1) == {"city": "Kirkland", "price": 700}
