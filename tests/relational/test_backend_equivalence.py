"""Property-based equivalence: the columnar backend vs the row backend.

The acceptance bar for the storage layer: for randomized tables and
predicates, the columnar backend must be *observationally identical* to
the row backend, which serves as the reference — same rows selected (same
indices, same order), same statistics, and the same category tree out of
the full categorizer.  Any divergence here means a fast path changed
semantics, not just speed.

Non-finite floats (NaN / ±inf) are included in the strategies for the
selection and bucketing tests — the NaN-divergence bugfix's regression
surface — but not for the contents/statistics tests: NaN breaks ``==``
by design, so observational identity is asserted where observations are
row *indices*, not raw float values.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expressions import (
    ComparisonPredicate,
    Conjunction,
    InPredicate,
    IsNullPredicate,
    RangePredicate,
)
from repro.relational.schema import Attribute, TableSchema
from repro.relational.statistics import (
    categorical_stats,
    numeric_stats,
    value_counts,
)
from repro.relational.table import Table
from repro.relational.types import AttributeKind, DataType


def schema() -> TableSchema:
    return TableSchema(
        "Props",
        (
            Attribute("kind", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("flag", DataType.BOOL, AttributeKind.CATEGORICAL),
            Attribute("count", DataType.INT, AttributeKind.NUMERIC),
            Attribute("score", DataType.FLOAT, AttributeKind.NUMERIC),
        ),
    )


# Small value pools so duplicates, NULLs and empty selections all occur.
KINDS = ("alpha", "beta", "gamma", None)
# Bounded ints: the columnar backend packs into int64; arbitrary-precision
# ints are a documented row-backend-only feature, not an equivalence bug.
counts = st.one_of(st.none(), st.integers(min_value=-1_000, max_value=1_000))
scores = st.one_of(
    st.none(),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=32),
)
# Scores that also cover the drop-and-count contract's edge cases.
nonfinite_scores = st.one_of(
    scores,
    st.sampled_from((math.nan, math.inf, -math.inf)),
)


def rows_strategy_with(score_values):
    return st.lists(
        st.fixed_dictionaries(
            {
                "kind": st.sampled_from(KINDS),
                "flag": st.one_of(st.none(), st.booleans()),
                "count": counts,
                "score": score_values,
            }
        ),
        max_size=40,
    )


rows_strategy = rows_strategy_with(scores)
rows_with_nonfinite = rows_strategy_with(nonfinite_scores)


def in_predicates(draw):
    attribute = draw(st.sampled_from(("kind", "count")))
    if attribute == "kind":
        values = draw(
            st.lists(st.sampled_from(KINDS + ("missing",)), min_size=1, max_size=3)
        )
    else:
        values = draw(
            st.lists(
                st.integers(min_value=-5, max_value=5), min_size=1, max_size=3
            )
        )
    return InPredicate(attribute, values)


def range_predicates(draw):
    attribute = draw(st.sampled_from(("count", "score")))
    low = draw(st.integers(min_value=-50, max_value=50))
    width = draw(st.integers(min_value=0, max_value=60))
    inclusive = draw(st.booleans())
    return RangePredicate(attribute, low, low + width, high_inclusive=inclusive)


def comparison_predicates(draw):
    attribute = draw(st.sampled_from(("kind", "count", "score")))
    op = draw(st.sampled_from(("<", "<=", ">", ">=", "=", "!=")))
    if attribute == "kind":
        value = draw(st.sampled_from(("alpha", "beta", "delta")))
    else:
        value = draw(st.integers(min_value=-20, max_value=20))
    return ComparisonPredicate(attribute, op, value)


@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(("in", "range", "cmp", "null", "and")))
    if kind == "in":
        return in_predicates(draw)
    if kind == "range":
        return range_predicates(draw)
    if kind == "cmp":
        return comparison_predicates(draw)
    if kind == "null":
        return IsNullPredicate(draw(st.sampled_from(("kind", "count", "score"))))
    parts = draw(
        st.lists(
            st.sampled_from(("in", "range", "cmp", "null")), min_size=2, max_size=4
        )
    )
    built = []
    for part in parts:
        if part == "in":
            built.append(in_predicates(draw))
        elif part == "range":
            built.append(range_predicates(draw))
        elif part == "cmp":
            built.append(comparison_predicates(draw))
        else:
            built.append(
                IsNullPredicate(draw(st.sampled_from(("kind", "count", "score"))))
            )
    return Conjunction(built)


def both_backends(rows):
    """(reference rows table, columnar table) over the same rows."""
    return tuple(
        Table.from_rows(schema(), rows, backend=backend)
        for backend in ("rows", "columnar")
    )


class TestStorageEquivalence:
    @given(rows_strategy)
    def test_logical_contents_identical(self, rows):
        row_table, col_table = both_backends(rows)
        assert row_table.to_dicts() == col_table.to_dicts()
        for name in schema().names():
            assert list(row_table.column(name)) == list(col_table.column(name))

    @settings(deadline=None)
    @given(rows_with_nonfinite, predicates())
    def test_selection_identical(self, rows, predicate):
        row_table, col_table = both_backends(rows)
        assert _selection(col_table, predicate) == _selection(row_table, predicate)

    @settings(deadline=None)
    @given(rows_with_nonfinite, predicates(), predicates())
    def test_chained_selection_identical(self, rows, first, second):
        row_table, col_table = both_backends(rows)
        assert _selection(col_table, first, second) == _selection(
            row_table, first, second
        )

    @settings(deadline=None)
    @given(rows_with_nonfinite)
    def test_groupby_identical(self, rows):
        row_table, col_table = both_backends(rows)
        for name in ("kind", "flag", "count"):
            assert col_table.groupby_index(name) == row_table.groupby_index(name)

    @settings(deadline=None)
    @given(
        rows_with_nonfinite,
        st.lists(
            st.integers(min_value=-60, max_value=60),
            min_size=2,
            max_size=6,
            unique=True,
        ).map(sorted),
    )
    def test_partition_by_buckets_identical(self, rows, boundaries):
        row_table, col_table = both_backends(rows)
        for attribute in ("count", "score"):
            assert _buckets(col_table, attribute, boundaries) == _buckets(
                row_table, attribute, boundaries
            )

    @settings(deadline=None)
    @given(rows_with_nonfinite)
    def test_nonfinite_boundaries_identical(self, rows):
        # Non-finite boundaries take the guarded slow path in every
        # backend; the drop-and-count contract must not change.
        boundaries = (-math.inf, -10.0, 0.0, 10.0, math.inf)
        row_table, col_table = both_backends(rows)
        assert _buckets(col_table, "score", boundaries) == _buckets(
            row_table, "score", boundaries
        )

    @given(rows_strategy)
    def test_statistics_identical(self, rows):
        row_table, col_table = both_backends(rows)
        assert numeric_stats(row_table, "count") == numeric_stats(col_table, "count")
        assert numeric_stats(row_table, "score") == numeric_stats(col_table, "score")
        assert categorical_stats(row_table, "kind") == categorical_stats(
            col_table, "kind"
        )
        assert value_counts(row_table, "kind") == value_counts(col_table, "kind")


def _selection(table, *predicate_chain):
    """Selection indices, with TypeErrors (TEXT-range rows) folded in."""
    view = table.all_rows()
    try:
        for predicate in predicate_chain:
            view = view.select(predicate)
    except TypeError:
        return "TypeError"
    return view.indices


def _buckets(table, attribute, boundaries):
    partitions = table.all_rows().partition_by_buckets(attribute, boundaries)
    return {key: view.indices for key, view in partitions.items()}


class TestCategorizerEquivalence:
    """End-to-end: the full cost-based tree must not depend on the backend."""

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_category_trees_identical(self, statistics, seattle_query, seed):
        # Random-but-deterministic tables via the real generator; the
        # workload statistics are backend-independent by construction, so
        # the tree compare isolates the storage layer.
        from repro.core.algorithm import CostBasedCategorizer
        from repro.data.homes import generate_homes

        trees = []
        for backend in ("rows", "columnar"):
            table = generate_homes(rows=600, seed=seed, backend=backend)
            rows = seattle_query.execute(table)
            tree = CostBasedCategorizer(statistics).categorize(rows, seattle_query)
            trees.append(
                [
                    (node.display(), node.level, tuple(node.rows.indices))
                    for node in tree.nodes()
                ]
            )
        assert trees[0] == trees[1]
