"""Property-based equivalence: the column store vs the row oracle.

The acceptance bar for the storage layer: for randomized tables and
predicates, :class:`~repro.relational.backends.ColumnStore` must be
*observationally identical* to the reference row store
(``tests/relational/reference_rowstore.py``) — same rows selected (same
indices, same order), same statistics, and the same category tree out of
the full categorizer.  Any divergence here means a fast path changed
semantics, not just speed.

Non-finite floats (NaN / ±inf) are included in the strategies for the
selection and bucketing tests — the NaN-divergence bugfix's regression
surface — but not for the contents/statistics tests: NaN breaks ``==``
by design, so observational identity is asserted where observations are
row *indices*, not raw float values.

Seeded mutations of ``ColumnStore`` selection this suite catches (each
run once, in a copy of the tree):

* postings merged in concatenation order, not sorted;
* a NULL dropped from the IN-set whose postings seed the candidates;
* the index path kept when another conjunct does not vectorize (that
  conjunct skipped);
* the index path applied to a sub-view;
* the index path returning early once no candidate is left, before
  checking that the rest vectorize;
* NULL rows kept by a numeric comparison.

Two more survive the 100 examples here and are caught in
``test_backends.py``: swapping one numeric comparison operator for its
neighbor (``<=`` for ``<`` and so on; rows equal to the compared value
are rarely drawn), caught for each of the six by
``test_select_comparison_ops``; and an IN-set none of whose values is
stored answering ``[]`` without checking that the rest vectorize,
caught by ``test_error_conjunct_order_preserved``.

Seeded mutations of the dictionary-coded numeric columns this suite
catches: -0.0 keyed as 0.0 and an IN on a zero missing the other zero
(both through the explicit example of ``test_layouts_answer_as_the_oracle``),
value counts or posting lists overwriting equal keys instead of merging
them, the per-code bucket table open at its top bound or letting
non-finite values through, an exclusive range mask built inclusive, NULL
matching a comparison mask, and no code-width widening.  Caught
elsewhere: the cap off by one and no widening
(``test_int_column_past_the_cap_is_raw``), a coded INT column admitting
values past int64 (``test_int64_overflow_raises``), a snapshot's NaN not
made ``math.nan`` (``tests/serving/test_warmstart.py``), counting an IN
or sizing a partitioning from posting lists
(``test_two_categorical_ins_build_one_posting_list``,
``test_scan_path_builds_no_posting_list``) and writes keeping the
tallies (``test_tally_counts_the_whole_table_and_follows_writes``).
"""

import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import backends
from repro.relational.backends import DictColumn, IntColumn
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
from repro.relational.table import RowSet, Table
from repro.relational.types import AttributeKind, DataType
from repro.workload.preprocess import preprocess_workload
from tests.relational.reference_rowstore import ReferenceTable


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
# Bounded ints: the column store packs into int64 and refuses the rest.
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


# ...and the two FLOAT values a dict cannot key by value: NaN and -0.0.
edge_scores = st.one_of(
    scores,
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0)),
)


rows_strategy = rows_strategy_with(scores)
rows_with_nonfinite = rows_strategy_with(nonfinite_scores)
rows_with_edges = rows_strategy_with(edge_scores)
kind_in_values = st.lists(
    st.sampled_from(KINDS + ("missing",)), min_size=1, max_size=3
)


def in_predicates(draw):
    # ``kind`` and ``flag`` are CATEGORICAL, so on a whole-table view their
    # IN-sets may seed the selection from posting lists; the sets hold NULL
    # and values no row stores ("missing", and often one of the booleans).
    attribute = draw(st.sampled_from(("kind", "flag", "count")))
    if attribute == "kind":
        values = draw(kind_in_values)
    elif attribute == "flag":
        values = draw(
            st.lists(st.sampled_from((True, False, None)), min_size=1, max_size=2)
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


@st.composite
def index_first_conjunctions(draw):
    """A ``kind IN`` mixed, in any order, with numeric ranges and
    comparisons, other IN-sets, and ``kind`` conditions that raise
    ``TypeError`` on any row that reaches them (a range, an ordering)."""
    parts = [InPredicate("kind", draw(kind_in_values))]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        part = draw(st.sampled_from(("range", "cmp", "in", "kind-range", "kind-cmp")))
        if part == "range":
            parts.append(range_predicates(draw))
        elif part == "cmp":
            parts.append(
                ComparisonPredicate(
                    draw(st.sampled_from(("count", "score"))),
                    draw(st.sampled_from(("<", "<=", ">", ">=", "=", "!="))),
                    draw(st.integers(min_value=-20, max_value=20)),
                )
            )
        elif part == "in":
            parts.append(in_predicates(draw))
        elif part == "kind-range":
            parts.append(RangePredicate("kind", 0, 10))
        else:
            parts.append(ComparisonPredicate("kind", "<", 5))
    return Conjunction(draw(st.permutations(parts)))


def both_backends(rows):
    """(reference row-store table, column-store table) over the same rows."""
    return ReferenceTable.from_rows(schema(), rows), Table.from_rows(schema(), rows)


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
    @given(rows_with_nonfinite, index_first_conjunctions())
    def test_index_first_selection_identical(self, rows, predicate):
        # Whole-table views: the column store may seed from postings.
        row_table, col_table = both_backends(rows)
        assert _selection(col_table, predicate) == _selection(row_table, predicate)

    @settings(deadline=None)
    @given(rows_with_nonfinite, predicates(), predicates())
    def test_chained_selection_identical(self, rows, first, second):
        # The second selection runs on a sub-view, which always scans.
        row_table, col_table = both_backends(rows)
        assert _selection(col_table, first, second) == _selection(
            row_table, first, second
        )

    @settings(deadline=None)
    @given(rows_with_nonfinite)
    def test_groupby_identical(self, rows):
        row_table, col_table = both_backends(rows)
        for name in ("kind", "flag", "count", "score"):
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
        # ``flag`` is a BOOL column bucketed as a number: the store's
        # dictionary-column path.
        for attribute in ("count", "score", "flag"):
            assert _buckets(col_table, attribute, boundaries) == _buckets(
                row_table, attribute, boundaries
            )

    @settings(deadline=None)
    @given(rows_with_nonfinite)
    def test_nonfinite_boundaries_identical(self, rows):
        # Non-finite boundaries take the guarded slow path in both
        # stores; the drop-and-count contract must not change.
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


class TestCodedNumericColumns:
    """INT and FLOAT columns crossing the code widths (past 256 values)
    and the dictionary cap, in the middle of a ``load_columns`` and in the
    middle of ``insert``s, with NULL, NaN, ±inf and ±0.0 among the values.

    ``prefix`` rows of distinct values come first, so 40 drawn rows can
    take a dictionary past 256 entries; ``cap`` replaces
    :data:`~repro.relational.backends.NUMERIC_DICTIONARY_CAP` while the
    tables load.  The rows up to ``split`` load in one ``from_rows``, the
    rest one ``insert`` each.
    """

    @settings(deadline=None, max_examples=60)
    @given(
        rows_with_edges,
        st.integers(min_value=0, max_value=40),
        st.sampled_from((3, 16, 300)),
        st.sampled_from((0, 250)),
        predicates(),
    )
    @example(  # both zeros in one load, then NaN and -0.0 inserted
        rows=[
            {"kind": "alpha", "flag": True, "count": 1, "score": score}
            for score in (0.0, -0.0, None, math.nan, -0.0, math.inf)
        ],
        split=3,
        cap=300,
        prefix=0,
        predicate=InPredicate("score", [-0.0]),
    )
    def test_layouts_answer_as_the_oracle(self, rows, split, cap, prefix, predicate):
        rows = [
            {"kind": "alpha", "flag": True, "count": 2_000 + n, "score": n / 4}
            for n in range(prefix)
        ] + rows
        split += prefix
        with mock.patch.object(backends, "NUMERIC_DICTIONARY_CAP", cap):
            row_table, col_table = (
                _loaded(layout, rows, split) for layout in (ReferenceTable, Table)
            )
        counts = {row["count"] for row in rows}
        assert isinstance(col_table.column("count"), IntColumn) == (
            len(counts) > cap
        )
        if len(counts) <= cap:
            assert isinstance(col_table.column("count"), DictColumn)
        for name in schema().names():
            # repr tells -0.0 from 0.0: each row reads back what it stored.
            assert list(map(repr, col_table.column(name))) == list(
                map(repr, row_table.column(name))
            )
        assert _selection(col_table, predicate) == _selection(row_table, predicate)
        boundaries = (-50, -0.0, 10, 50.5, 2_100)
        for name in ("count", "score"):
            assert col_table.groupby_index(name) == row_table.groupby_index(name)
            assert col_table.tally(name) == row_table.tally(name)
            every_other = RowSet(col_table, range(0, len(rows), 2))
            assert every_other.count_values(name) == RowSet(
                row_table, range(0, len(rows), 2)
            ).count_values(name)
            assert _buckets(col_table, name, boundaries) == _buckets(
                row_table, name, boundaries
            )


class TestMoviesLayouts:
    """The movies relation: ``votes`` (12,687 distinct values in 20,000
    rows) lands raw, every other column stays coded, and the trees and
    selections match the row oracle's."""

    def test_votes_raw_and_trees_identical(self):
        from repro.core.algorithm import CostBasedCategorizer
        from repro.core.baselines import NoCostCategorizer
        from repro.core.config import CategorizerConfig
        from repro.data.movies import (
            MOVIE_SEPARATION_INTERVALS,
            generate_movie_workload,
            movie_rows,
            movie_schema,
        )
        from repro.relational.query import SelectQuery

        table = Table.from_rows(movie_schema(), movie_rows())
        oracle = ReferenceTable.from_rows(movie_schema(), movie_rows())
        assert isinstance(table.column("votes"), IntColumn)
        for name in movie_schema().names():
            if name != "votes":
                assert isinstance(table.column(name), DictColumn), name
        statistics = preprocess_workload(
            generate_movie_workload(queries=2_000, seed=5),
            movie_schema(),
            MOVIE_SEPARATION_INTERVALS,
        )
        config = CategorizerConfig(separation_intervals=MOVIE_SEPARATION_INTERVALS)
        # Fresh per table: the No-Cost baseline draws a new attribute
        # order on every call.  It buckets the raw ``votes`` column.
        categorizers = (
            lambda: CostBasedCategorizer(statistics, config),
            lambda: NoCostCategorizer(
                statistics, config, attribute_set=("votes", "year", "rating")
            ),
        )
        queries = (
            SelectQuery("Movies", RangePredicate("rating", 7.0, 10.0)),
            SelectQuery(
                "Movies",
                Conjunction(
                    (
                        InPredicate("genre", ["Drama", "Comedy"]),
                        ComparisonPredicate("votes", ">=", 10_000),
                    )
                ),
            ),
        )
        for query in queries:
            rows = [query.execute(t) for t in (table, oracle)]
            assert rows[0].indices == rows[1].indices
            for categorizer in categorizers:
                trees = [
                    [
                        (node.display(), node.level, tuple(node.rows.indices))
                        for node in categorizer().categorize(r, query).nodes()
                    ]
                    for r in rows
                ]
                assert trees[0] == trees[1]


def _loaded(layout, rows, split):
    """``rows[:split]`` loaded in one batch, then the rest one by one."""
    table = layout.from_rows(schema(), rows[:split])
    for row in rows[split:]:
        table.insert(row)
    return table


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
    """End-to-end: the full cost-based tree must not depend on the storage."""

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_category_trees_identical(self, statistics, seattle_query, seed):
        # Random-but-deterministic tables via the real generator's rows;
        # the workload statistics are storage-independent by construction,
        # so the tree compare isolates the storage layer.
        from repro.core.algorithm import CostBasedCategorizer
        from repro.data.homes import ListPropertyGenerator, list_property_schema

        generator = ListPropertyGenerator(rows=600, seed=seed)
        trees = []
        for table in (
            ReferenceTable.from_rows(list_property_schema(), generator.listings()),
            generator.generate(),
        ):
            rows = seattle_query.execute(table)
            tree = CostBasedCategorizer(statistics).categorize(rows, seattle_query)
            trees.append(
                [
                    (node.display(), node.level, tuple(node.rows.indices))
                    for node in tree.nodes()
                ]
            )
        assert trees[0] == trees[1]
