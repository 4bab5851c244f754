"""Tests for the storage layer (ColumnStore against the row oracle).

The column store must be *semantically invisible*: every Table / RowSet
operation returns the same logical values as the reference row store
(``tests/relational/reference_rowstore.py``), NULL contracts included.
The ``[rows]`` cases run each contract on the oracle, the ``[columnar]``
cases on the real store.  These are targeted unit tests; the randomized
cross-layout checks live in ``test_backend_equivalence.py``.
"""

import math
from array import array

import pytest

from repro import perf
from repro.relational.backends import (
    NUMERIC_DICTIONARY_CAP,
    DictColumn,
    IntColumn,
    index_typecode,
)
from repro.relational.expressions import (
    ComparisonPredicate,
    Conjunction,
    InPredicate,
    IsNullPredicate,
    RangePredicate,
    TruePredicate,
)
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import RowSet, Table
from repro.relational.types import AttributeKind, DataType
from tests.relational.reference_rowstore import LAYOUTS


def homes_schema() -> TableSchema:
    return TableSchema(
        "Homes",
        (
            Attribute("city", DataType.TEXT),
            Attribute("price", DataType.INT),
            Attribute("bath", DataType.FLOAT),
        ),
    )


ROWS = [
    {"city": "Seattle", "price": 300, "bath": 1.5},
    {"city": "Bellevue", "price": 500, "bath": 2.5},
    {"city": "Seattle", "price": 400, "bath": None},
    {"city": "Redmond", "price": None, "bath": 2.0},
    {"city": None, "price": 250, "bath": 1.0},
]


@pytest.fixture(params=list(LAYOUTS))
def table(request):
    t = LAYOUTS[request.param](homes_schema())
    t.extend(ROWS)
    return t


@pytest.fixture
def columnar():
    t = Table(homes_schema())
    t.extend(ROWS)
    return t


class TestBasicsOnBothBackends:
    """Every Table contract from test_table.py, on both layouts."""

    def test_len_and_iteration(self, table):
        assert len(table) == 5
        assert sum(1 for _ in table) == 5

    def test_row_access(self, table):
        assert table.row(1)["city"] == "Bellevue"
        assert dict(table.row(3)) == {"city": "Redmond", "price": None, "bath": 2.0}

    def test_column_values_with_nulls(self, table):
        assert list(table.column("price")) == [300, 500, 400, None, 250]
        assert list(table.column("city"))[3:] == ["Redmond", None]
        assert list(table.column("bath")) == [1.5, 2.5, None, 2.0, 1.0]

    def test_column_unknown_raises(self, table):
        with pytest.raises(KeyError, match="available"):
            table.column("bogus")

    def test_insert_coerces(self, table):
        table.insert({"city": "Kirkland", "price": "275", "bath": "1"})
        row = table.row(5)
        assert row["price"] == 275
        assert row["bath"] == 1.0

    def test_missing_attribute_becomes_null(self, table):
        table.insert({"city": "Kirkland"})
        assert table.row(5)["price"] is None
        assert table.row(5)["bath"] is None

    def test_to_dicts(self, table):
        assert table.to_dicts() == ROWS

    def test_values(self, table):
        rows = table.all_rows()
        assert rows.values("price") == [300, 500, 400, None, 250]

    def test_count_values(self, table):
        rows = table.all_rows()
        assert rows.count_values("city") == {
            "Seattle": 2, "Bellevue": 1, "Redmond": 1, None: 1
        }
        assert rows.count_values("price") == {
            300: 1, 500: 1, 400: 1, None: 1, 250: 1
        }
        assert RowSet(table, (0, 2, 0)).count_values("city") == {"Seattle": 3}
        assert RowSet(table, ()).count_values("bath") == {}


class TestSelectionOnBothBackends:
    def test_select_in(self, table):
        assert table.select(InPredicate("city", ["Seattle"])).indices == (0, 2)

    def test_select_in_unknown_value(self, table):
        assert len(table.select(InPredicate("city", ["Nowhere"]))) == 0

    def test_select_in_with_null_value_matches_null_rows(self, table):
        # Row-at-a-time, ``row.get(attr) in {None, ...}`` matches NULLs;
        # the code path for NULL_CODE must agree.
        rows = table.select(InPredicate("city", ["Seattle", None]))
        assert rows.indices == (0, 2, 4)

    def test_select_in_numeric(self, table):
        assert table.select(InPredicate("price", [300, 250])).indices == (0, 4)

    def test_select_range_excludes_null(self, table):
        rows = table.select(RangePredicate("price", 0, 10_000))
        assert rows.indices == (0, 1, 2, 4)

    def test_select_range_exclusive_upper(self, table):
        rows = table.select(
            RangePredicate("price", 250, 400, high_inclusive=False)
        )
        assert rows.indices == (0, 4)

    def test_select_comparison_ops(self, table):
        assert table.select(ComparisonPredicate("price", ">=", 400)).indices == (1, 2)
        assert table.select(ComparisonPredicate("price", "!=", 300)).indices == (
            1,
            2,
            4,
        )
        assert table.select(ComparisonPredicate("bath", "<", 2.0)).indices == (0, 4)
        # Every operator at a stored value, where each differs from its
        # neighbor; the NULL price (row 3) matches none of them.
        assert table.select(ComparisonPredicate("price", "<", 400)).indices == (0, 4)
        assert table.select(ComparisonPredicate("price", "<=", 400)).indices == (
            0,
            2,
            4,
        )
        assert table.select(ComparisonPredicate("price", ">", 400)).indices == (1,)
        assert table.select(ComparisonPredicate("price", "=", 400)).indices == (2,)
        assert table.select(ComparisonPredicate("bath", "<=", 2.0)).indices == (
            0,
            3,
            4,
        )

    def test_select_comparison_on_text_ordering(self, table):
        # Ordering over strings is well-defined and must work on the
        # dictionary-encoded column too.
        rows = table.select(ComparisonPredicate("city", "<", "Redmond"))
        assert rows.indices == (1,)

    def test_select_equality_on_text(self, table):
        assert table.select(ComparisonPredicate("city", "=", "Seattle")).indices == (
            0,
            2,
        )

    def test_select_is_null(self, table):
        assert table.select(IsNullPredicate("price")).indices == (3,)
        assert table.select(IsNullPredicate("city")).indices == (4,)

    def test_select_is_null_no_nulls(self, table):
        table.insert({"city": "X", "price": 1, "bath": 1.0})
        fresh = type(table)(homes_schema())
        fresh.extend([{"city": "A", "price": 1, "bath": 1.0}])
        assert len(fresh.select(IsNullPredicate("price"))) == 0

    def test_select_true_returns_same_view(self, table):
        view = table.all_rows()
        assert view.select(TruePredicate()) is view

    def test_select_conjunction(self, table):
        rows = table.select(
            Conjunction(
                (
                    InPredicate("city", ["Seattle", "Bellevue"]),
                    RangePredicate("price", 350, 600),
                )
            )
        )
        assert rows.indices == (1, 2)

    def test_chained_selection(self, table):
        rows = table.select(InPredicate("city", ["Seattle"]))
        narrowed = rows.select(RangePredicate("price", 350, 600))
        assert narrowed.indices == (2,)

    def test_select_unknown_attribute_matches_nothing(self, table):
        # Predicates read rows via Mapping.get -> None, so an unknown
        # attribute silently matches nothing on both layouts.
        assert len(table.select(InPredicate("bogus", ["x"]))) == 0
        assert len(table.select(RangePredicate("bogus", 0, 1))) == 0

    def test_range_on_text_raises_type_error(self, table):
        # The row engine raises comparing str to float; the column
        # store must defer to the row path and raise identically.
        with pytest.raises(TypeError):
            table.select(RangePredicate("city", 0, 10))

    def test_ordering_against_non_number_on_numeric_raises(self, table):
        with pytest.raises(TypeError):
            table.select(ComparisonPredicate("price", "<", "expensive"))

    def test_error_conjunct_order_preserved(self, table):
        # city IN (...) runs first and narrows to zero candidates, so the
        # TypeError-raising range conjunct is never evaluated — on either
        # layout.
        rows = table.select(
            Conjunction(
                (
                    InPredicate("city", ["Nowhere"]),
                    RangePredicate("city", 0, 10),
                )
            )
        )
        assert len(rows) == 0
        # With the range first, every row with a city reaches it, even
        # though the IN-set's postings are empty.
        with pytest.raises(TypeError):
            table.select(
                Conjunction(
                    (
                        RangePredicate("city", 0, 10),
                        InPredicate("city", ["Nowhere"]),
                    )
                )
            )


class TestGroupbyOnBothBackends:
    def test_groupby_text(self, table):
        index = table.groupby_index("city")
        assert list(index["Seattle"]) == [0, 2]
        assert list(index["Bellevue"]) == [1]
        assert list(index[None]) == [4]

    def test_groupby_numeric_nulls(self, table):
        index = table.groupby_index("price")
        assert list(index[None]) == [3]
        assert list(index[300]) == [0]

    def test_groupby_values_are_packed(self, table):
        # The row oracle packs each list on its own; the column store
        # hands out memoryview slices of one packed array per attribute.
        for name in ("city", "price", "bath"):
            for ids in table.groupby_index(name).values():
                if type(ids) is memoryview:
                    ids = ids.obj
                assert type(ids) is array and ids.typecode == "i"

    def test_insert_invalidates(self, table):
        before = table.groupby_index("city")
        table.insert({"city": "Seattle", "price": 700, "bath": 1.0})
        after = table.groupby_index("city")
        assert after is not before
        assert list(after["Seattle"]) == [0, 2, 5]


    def test_tally_counts_the_whole_table_and_follows_writes(self, table):
        assert table.tally("city") == {
            "Seattle": 2, "Bellevue": 1, "Redmond": 1, None: 1
        }
        table.insert({"city": "Seattle", "price": 700, "bath": 1.0})
        assert table.tally("city")["Seattle"] == 3
        assert table.tally("price")[700] == 1


def test_posting_typecode_widens_only_at_2_31_rows():
    assert index_typecode(0) == "i"
    assert index_typecode(2**31 - 1) == "i"
    assert index_typecode(2**31) == "q"


class TestColumnarSpecifics:
    def test_dictionary_interning(self, columnar):
        column = columnar.column("city")
        assert isinstance(column, DictColumn)
        assert column.cardinality == 3  # Seattle, Bellevue, Redmond
        assert column.code_of("Seattle") == 0
        assert column.code_of("Nowhere") is None

    def test_int_column_packed(self, columnar):
        # Few distinct values: dictionary-coded, one byte per row.
        column = columnar.column("price")
        assert isinstance(column, DictColumn)
        assert column._codes.typecode == "B"
        assert column.cardinality == 4  # 300, 500, 400, 250
        assert column[0] == 300
        assert column[3] is None
        assert column[-1] == 250  # negative indexing, like a list

    def test_int_column_past_the_cap_is_raw(self):
        schema = TableSchema("T", (Attribute("a", DataType.INT),))
        table = Table.from_columns(
            schema, {"a": list(range(NUMERIC_DICTIONARY_CAP - 1))}
        )
        column = table.column("a")
        assert isinstance(column, DictColumn)
        assert column._codes.typecode == "H"
        table.insert({"a": None})  # the dictionary's last entry: NULL
        assert isinstance(table.column("a"), DictColumn)
        table.insert({"a": -1})
        column = table.column("a")
        assert isinstance(column, IntColumn)
        assert column._data.typecode == "q"
        assert column[NUMERIC_DICTIONARY_CAP - 1] is None
        assert list(column)[-3:] == [NUMERIC_DICTIONARY_CAP - 2, None, -1]
        # Raw for good: a value the dictionary already held stays raw.
        table.insert({"a": 0})
        assert isinstance(table.column("a"), IntColumn)

    def test_code_width_widens_past_a_byte(self):
        schema = TableSchema("T", (Attribute("s", DataType.TEXT),))
        table = Table.from_columns(schema, {"s": [str(n) for n in range(256)]})
        assert table.column("s")._codes.typecode == "B"
        table.insert({"s": "one more"})
        column = table.column("s")
        assert column._codes.typecode == "H"
        assert column[0] == "0" and column[256] == "one more"

    def test_float_nan_and_signed_zero(self):
        schema = TableSchema("T", (Attribute("x", DataType.FLOAT),))
        table = Table.from_columns(
            schema, {"x": [0.0, float("nan"), -0.0, float("nan"), 1.0, -0.0]}
        )
        column = table.column("x")
        assert isinstance(column, DictColumn)
        assert column.cardinality == 4  # 0.0, NaN, -0.0, 1.0
        signs = [math.copysign(1.0, value) for value in column]
        assert signs[0] == 1.0 and signs[2] == -1.0 and signs[5] == -1.0
        assert column[1] is math.nan and column[3] is math.nan
        rows = table.all_rows()
        assert rows.count_values("x") == {0.0: 3, math.nan: 2, 1.0: 1}
        index = table.groupby_index("x")
        assert {key: list(ids) for key, ids in index.items()} == {
            0.0: [0, 2, 5], math.nan: [1, 3], 1.0: [4]
        }
        # IN and = treat the two zeros alike; NaN matches neither.
        assert table.select(InPredicate("x", [-0.0])).indices == (0, 2, 5)
        assert table.select(ComparisonPredicate("x", "=", 0)).indices == (
            0, 2, 5
        )
        assert len(table.select(InPredicate("x", [math.nan]))) == 0

    def test_int64_overflow_raises(self, columnar):
        with pytest.raises(OverflowError):
            columnar.insert({"city": "X", "price": 2**63, "bath": 1.0})

    def test_overflow_insert_is_atomic(self, columnar):
        before = columnar.to_dicts()
        with pytest.raises(OverflowError):
            columnar.insert({"city": "Y", "price": 2**63, "bath": 1.0})
        assert len(columnar) == 5
        assert columnar.to_dicts() == before
        # The next insert must land aligned across all columns.
        columnar.insert({"city": "Y", "price": 42, "bath": 3.0})
        assert dict(columnar.row(5)) == {"city": "Y", "price": 42, "bath": 3.0}

    def test_overflow_error_names_attribute_and_value(self, columnar):
        with pytest.raises(OverflowError, match=r"'price': 18446744073709551616"):
            columnar.insert({"city": "X", "price": 2**64, "bath": 1.0})

    @pytest.mark.parametrize(
        "big", [2**63, 2**64, -(2**63) - 1], ids=["2**63", "2**64", "-2**63-1"]
    )
    def test_overflow_load_columns_is_all_or_nothing(self, big):
        schema = TableSchema(
            "T", (Attribute("b", DataType.TEXT), Attribute("a", DataType.INT))
        )
        table = Table(schema)
        with pytest.raises(OverflowError):
            table.load_columns({"b": ["x", "y", "z"], "a": [1, big, 3]})
        assert len(table) == 0
        assert [len(table.column(name)) for name in ("b", "a")] == [0, 0]
        # The next write lands aligned across all columns.
        table.insert({"b": "w", "a": 4})
        assert table.to_dicts() == [{"b": "w", "a": 4}]

    def test_overflow_load_keeps_earlier_rows_and_nulls(self, columnar):
        before = columnar.to_dicts()
        with pytest.raises(OverflowError):
            columnar.load_columns(
                {"city": ["Q", None], "price": [None, 2**64], "bath": [1.0, None]}
            )
        assert len(columnar) == 5
        assert columnar.to_dicts() == before
        assert columnar.select(IsNullPredicate("price")).indices == (3,)

    def test_bulk_extend_with_nulls_rolls_back_cleanly(self):
        # load_columns hits array.extend's fast path, which trips on None
        # mid-batch; the rollback must leave values intact and ordered.
        t = Table.from_columns(
            homes_schema(),
            {
                "city": ["A", "B", "C"],
                "price": [1, None, 3],
                "bath": [None, 2.0, None],
            },
        )
        assert t.all_rows().values("price") == [1, None, 3]
        assert t.all_rows().values("bath") == [None, 2.0, None]


class TestFromColumns:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_round_trip(self, layout):
        t = LAYOUTS[layout].from_columns(
            homes_schema(),
            {
                "city": ["A", "B"],
                "price": ["100", 200],  # coerced
                "bath": [1, None],
            },
        )
        assert t.to_dicts() == [
            {"city": "A", "price": 100, "bath": 1.0},
            {"city": "B", "price": 200, "bath": None},
        ]

    def test_missing_column_raises(self):
        with pytest.raises(KeyError, match="missing"):
            Table.from_columns(homes_schema(), {"city": ["A"], "price": [1]})

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError, match="unknown"):
            Table.from_columns(
                homes_schema(),
                {"city": ["A"], "price": [1], "bath": [1.0], "bogus": [0]},
            )

    def test_ragged_columns_raise(self):
        with pytest.raises(ValueError, match="ragged"):
            Table.from_columns(
                homes_schema(),
                {"city": ["A", "B"], "price": [1], "bath": [1.0]},
            )

    def test_coercion_error_names_column_and_position(self):
        with pytest.raises(TypeError, match=r"column 'price'\[1\]"):
            Table.from_columns(
                homes_schema(),
                {"city": ["A", "B"], "price": [1, "wat"], "bath": [1.0, 2.0]},
            )

    def test_empty_columns(self):
        t = Table.from_columns(
            homes_schema(), {"city": [], "price": [], "bath": []}
        )
        assert len(t) == 0


class TestFromRows:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_insert_loop(self, layout):
        via_insert = LAYOUTS[layout](homes_schema())
        via_insert.extend(ROWS)
        bulk = LAYOUTS[layout].from_rows(homes_schema(), ROWS)
        assert bulk.to_dicts() == via_insert.to_dicts()

    def test_accepts_generator(self):
        t = Table.from_rows(homes_schema(), (dict(r) for r in ROWS))
        assert len(t) == 5

    def test_missing_keys_become_null(self):
        t = Table.from_rows(homes_schema(), [{"city": "A"}])
        assert t.row(0)["price"] is None

    def test_unknown_keys_ignored(self):
        # Documented divergence from insert(): bulk loads project onto the
        # schema rather than erroring per-row.
        t = Table.from_rows(homes_schema(), [{"city": "A", "bogus": 1}])
        assert t.to_dicts() == [{"city": "A", "price": None, "bath": None}]


class TestAccessPath:
    """Which path the column store's selection takes; the equivalence
    suite checks that both answer as the row oracle does."""

    @staticmethod
    def _select(view, predicate):
        perf.reset()
        perf.enable()
        try:
            rows = view.select(predicate)
        finally:
            perf.disable()
        counters = dict(perf.get().counters)
        perf.reset()
        path = "index" if counters.get("select.index_path") else "scan"
        return rows.indices, path

    def test_narrow_categorical_in_seeds_from_postings(self, columnar):
        # Seattle holds 2 of 5 rows, under the crossover.
        predicate = Conjunction(
            (RangePredicate("price", 0, 450), InPredicate("city", ["Seattle"]))
        )
        assert self._select(columnar.all_rows(), predicate) == ((0, 2), "index")

    def test_wide_categorical_in_scans(self, columnar):
        predicate = InPredicate("city", ["Seattle", "Bellevue", "Redmond"])
        assert self._select(columnar.all_rows(), predicate) == (
            (0, 1, 2, 3),
            "scan",
        )

    def test_sub_view_scans(self, columnar):
        view = columnar.select(RangePredicate("price", 0, 1000))
        predicate = InPredicate("city", ["Seattle"])
        assert self._select(view, predicate) == ((0, 2), "scan")

    def test_two_categorical_ins_build_one_posting_list(self):
        schema = TableSchema(
            "T",
            (
                Attribute("city", DataType.TEXT, AttributeKind.CATEGORICAL),
                Attribute("zone", DataType.INT, AttributeKind.CATEGORICAL),
            ),
        )
        table = Table.from_columns(
            schema,
            {
                "city": ["A", "B", "C", "A", "B", "C", "A", "B", "C", "D"],
                "zone": [1, 2, 3, 4, 1, 2, 1, 4, 1, 2],
            },
        )
        # zone IN (1, 2) selects 7 rows, city IN ('A') 3: only city's
        # posting lists are built, and only to be walked.
        predicate = Conjunction(
            (InPredicate("zone", [1, 2]), InPredicate("city", ["A"]))
        )
        perf.reset()
        perf.enable()
        try:
            rows = table.select(predicate)
        finally:
            perf.disable()
        counters = dict(perf.get().counters)
        perf.reset()
        assert rows.indices == (0, 6)
        assert counters.get("select.index_path", 0) == 1
        assert counters.get("table.groupby_index.build", 0) == 1

    def test_conjunct_that_does_not_vectorize_scans(self, columnar):
        predicate = Conjunction(
            (InPredicate("city", ["Nowhere"]), RangePredicate("city", 0, 10))
        )
        assert self._select(columnar.all_rows(), predicate) == ((), "scan")


class TestPartitionDroppedRowsCounter:
    def test_counter_emitted_when_rows_dropped(self, table):
        perf.reset()
        perf.enable()
        try:
            parts = table.all_rows().partition_by_attribute(
                "price", lambda value: value
            )
        finally:
            perf.disable()
        counters = dict(perf.get().counters)
        perf.reset()
        assert None not in parts
        assert counters.get("partition.dropped_rows", 0) == 1

    def test_no_counter_when_nothing_dropped(self, table):
        perf.reset()
        perf.enable()
        try:
            # "bath" has one NULL -> counts 1
            table.all_rows().partition_by_attribute("bath", lambda v: v)
            fresh = type(table)(homes_schema())
            fresh.extend([{"city": "A", "price": 1, "bath": 1.0}])
            fresh.all_rows().partition_by_attribute("price", lambda v: v)
        finally:
            perf.disable()
        counters = dict(perf.get().counters)
        perf.reset()
        assert counters.get("partition.dropped_rows", 0) == 1  # only the first


class TestPartitionByBuckets:
    """The numeric bucketing fast path (both layouts)."""

    def test_buckets_match_semantics(self, table):
        # prices: 300, 500, 400, None, 250; boundaries [250, 400, 500]
        buckets = table.all_rows().partition_by_buckets("price", [250, 400, 500])
        assert buckets[0].indices == (0, 4)  # 250 <= v < 400
        assert buckets[1].indices == (1, 2)  # 400 <= v <= 500 (last closed)

    def test_out_of_range_and_null_dropped(self, table):
        perf.reset()
        perf.enable()
        try:
            buckets = table.all_rows().partition_by_buckets(
                "price", [300, 400, 450]
            )
        finally:
            perf.disable()
        counters = dict(perf.get().counters)
        perf.reset()
        assert buckets[0].indices == (0,)  # 300
        assert buckets[1].indices == (2,)  # 400; 450 excluded -> none
        # Dropped: 500 (above), None, 250 (below) = 3 rows.
        assert counters.get("partition.dropped_rows", 0) == 3

    def test_empty_buckets_omitted(self, table):
        buckets = table.all_rows().partition_by_buckets(
            "price", [0, 100, 200, 600]
        )
        assert sorted(buckets) == [2]
        assert len(buckets[2]) == 4

    def test_matches_classify_path(self, table):
        import bisect

        boundaries = [250, 350, 450, 500]

        def classify(value):
            if value is None or not (boundaries[0] <= value <= boundaries[-1]):
                return None
            return min(
                bisect.bisect_right(boundaries, value) - 1, len(boundaries) - 2
            )

        via_classify = table.all_rows().partition_by_attribute("price", classify)
        via_buckets = table.all_rows().partition_by_buckets("price", boundaries)
        assert set(via_classify) == set(via_buckets)
        for key in via_classify:
            assert via_classify[key].indices == via_buckets[key].indices

    def test_unknown_attribute_raises(self, table):
        with pytest.raises(KeyError):
            table.all_rows().partition_by_buckets("bogus", [0, 1])

    def test_float_column(self, table):
        buckets = table.all_rows().partition_by_buckets("bath", [1.0, 2.0, 2.5])
        assert buckets[0].indices == (0, 4)  # 1.5, 1.0
        assert buckets[1].indices == (1, 3)  # 2.5 (closed), 2.0


class TestRowSetIndices:
    def test_indices_is_tuple_from_list_input(self, table):
        from repro.relational.table import RowSet

        view = RowSet(table, [0, 2])
        assert view.indices == (0, 2)
        assert isinstance(view.indices, tuple)

    def test_indices_is_tuple_from_range_input(self, table):
        assert table.all_rows().indices == tuple(range(5))

    def test_select_results_expose_tuple_indices(self, table):
        rows = table.select(InPredicate("city", ["Seattle"]))
        assert rows.indices == (0, 2)
