"""Tests for single-value categorical partitioning (Section 5.1.2)."""

import pytest

from repro.core.partition.categorical import CategoricalPartitioner
from repro.data.homes import list_property_schema
from repro.relational.expressions import InPredicate
from repro.relational.query import SelectQuery
from repro.relational.table import Table
from repro.workload.log import Workload
from repro.workload.preprocess import preprocess_workload


@pytest.fixture
def stats():
    workload = Workload.from_sql_strings(
        [
            "SELECT * FROM ListProperty WHERE neighborhood IN ('B, WA')",
            "SELECT * FROM ListProperty WHERE neighborhood IN ('B, WA')",
            "SELECT * FROM ListProperty WHERE neighborhood IN ('B, WA', 'A, WA')",
            "SELECT * FROM ListProperty WHERE neighborhood IN ('C, WA')",
        ]
    )
    return preprocess_workload(workload, list_property_schema())


@pytest.fixture
def rows():
    table = Table(list_property_schema())
    for hood, count in (("A, WA", 3), ("B, WA", 5), ("C, WA", 2), ("D, WA", 1)):
        for i in range(count):
            table.insert({"neighborhood": hood, "price": 100_000 + i})
    return table.all_rows()


class TestOrdering:
    def test_values_ordered_by_occ_desc(self, stats, rows):
        partitioner = CategoricalPartitioner("neighborhood", stats)
        ordered = partitioner.ordered_values(rows)
        # occ: B=3, A=1, C=1, D=0; ties (A, C) break by repr.
        assert ordered == ["B, WA", "A, WA", "C, WA", "D, WA"]

    def test_universe_from_query_in_clause(self, stats, rows):
        query = SelectQuery(
            "ListProperty", InPredicate("neighborhood", ["A, WA", "B, WA"])
        )
        partitioner = CategoricalPartitioner("neighborhood", stats, query=query)
        assert partitioner.ordered_values(rows) == ["B, WA", "A, WA"]

    def test_explicit_universe_wins(self, stats, rows):
        partitioner = CategoricalPartitioner(
            "neighborhood", stats, universe=["C, WA", "B, WA"]
        )
        assert partitioner.ordered_values(rows) == ["B, WA", "C, WA"]


class TestPartition:
    def test_partition_counts(self, stats, rows):
        partitioner = CategoricalPartitioner("neighborhood", stats)
        parts = partitioner.partition(rows)
        sizes = {label.single_value: len(r) for label, r in parts}
        assert sizes == {"A, WA": 3, "B, WA": 5, "C, WA": 2, "D, WA": 1}

    def test_partition_order_follows_occ(self, stats, rows):
        partitioner = CategoricalPartitioner("neighborhood", stats)
        parts = partitioner.partition(rows)
        assert [label.single_value for label, _ in parts] == [
            "B, WA", "A, WA", "C, WA", "D, WA",
        ]

    def test_empty_categories_removed(self, stats, rows):
        query = SelectQuery(
            "ListProperty",
            InPredicate("neighborhood", ["A, WA", "Z, WA"]),  # Z has no tuples
        )
        partitioner = CategoricalPartitioner("neighborhood", stats, query=query)
        parts = partitioner.partition(rows)
        assert [label.single_value for label, _ in parts] == ["A, WA"]

    def test_tuples_outside_universe_uncategorized(self, stats, rows):
        partitioner = CategoricalPartitioner(
            "neighborhood", stats, universe=["A, WA"]
        )
        parts = partitioner.partition(rows)
        assert sum(len(r) for _, r in parts) == 3

    def test_partitions_are_disjoint(self, stats, rows):
        partitioner = CategoricalPartitioner("neighborhood", stats)
        parts = partitioner.partition(rows)
        indices = [i for _, r in parts for i in r.indices]
        assert len(indices) == len(set(indices))

    def test_labels_are_single_value(self, stats, rows):
        partitioner = CategoricalPartitioner("neighborhood", stats)
        for label, _ in partitioner.partition(rows):
            assert len(label.values) == 1


class TestExplorationProbability:
    def test_occ_ratio(self, stats, rows):
        partitioner = CategoricalPartitioner("neighborhood", stats)
        assert partitioner.exploration_probability("B, WA") == pytest.approx(3 / 4)
        assert partitioner.exploration_probability("D, WA") == 0.0

    def test_zero_when_attribute_unused(self, stats, rows):
        partitioner = CategoricalPartitioner("propertytype", stats)
        assert partitioner.exploration_probability("Condo/Townhome") == 0.0


def _as_comparable(partitioning):
    return [(label, part.indices) for label, part in partitioning]


def _via_index(partitioner, rows):
    ordered = partitioner.ordered_values(rows)
    return _as_comparable(partitioner._partition_via_index(rows, ordered))


def _via_scan(partitioner, rows):
    ordered = partitioner.ordered_values(rows)
    return _as_comparable(partitioner._partition_via_scan(rows, ordered))


class TestIndexPathEquivalence:
    """The groupby-index fast path must match the scan path exactly."""

    def test_full_table_partitioning_identical(self, stats, rows):
        partitioner = CategoricalPartitioner("neighborhood", stats)
        assert _via_index(partitioner, rows) == _via_scan(partitioner, rows)

    def test_subset_partitioning_identical(self, stats, rows):
        subset = rows.select(InPredicate("neighborhood", ["A, WA", "B, WA"]))
        partitioner = CategoricalPartitioner("neighborhood", stats)
        assert _via_index(partitioner, subset) == _via_scan(partitioner, subset)

    def test_query_universe_identical(self, stats, rows):
        query = SelectQuery(
            "ListProperty", InPredicate("neighborhood", ["A, WA", "C, WA"])
        )
        partitioner = CategoricalPartitioner("neighborhood", stats, query=query)
        assert _via_index(partitioner, rows) == _via_scan(partitioner, rows)

    def test_missing_category_identical(self, stats):
        table = Table(list_property_schema())
        for hood in ("A, WA", "B, WA", None, "A, WA", None):
            table.insert({"neighborhood": hood, "price": 1})
        rows = table.all_rows()
        partitioner = CategoricalPartitioner(
            "neighborhood", stats, include_missing=True
        )
        assert _via_index(partitioner, rows) == _via_scan(partitioner, rows)

    def test_non_ascending_view_falls_back_to_scan(self, stats, rows):
        from repro.relational.table import RowSet

        shuffled = RowSet(rows.table, tuple(reversed(rows.indices)))
        partitioner = CategoricalPartitioner("neighborhood", stats)
        assert not partitioner._index_path_profitable(
            shuffled, partitioner.ordered_values(shuffled)
        )
        # The partitioning still works (via the scan path) and preserves
        # the view's own row order inside each bucket.
        assert _as_comparable(partitioner.partition(shuffled)) == _via_scan(
            partitioner, shuffled
        )

    def test_scan_path_builds_no_posting_list(self, stats, rows):
        from repro import perf
        from repro.relational.table import RowSet

        # One B row: B's five rows are more than 4x the node, so it scans,
        # sized from the table's value counts, not its posting lists.
        node = RowSet(rows.table, (3,))
        perf.reset()
        perf.enable()
        try:
            CategoricalPartitioner("neighborhood", stats).partition(node)
        finally:
            perf.disable()
        counters = dict(perf.get().counters)
        perf.reset()
        assert counters.get("partition.categorical.scan_path", 0) == 1
        assert counters.get("table.groupby_index.build", 0) == 0

    def test_index_path_taken_on_full_table(self, stats, rows):
        from repro import perf

        perf.reset()
        perf.enable()
        try:
            CategoricalPartitioner("neighborhood", stats).partition(rows)
        finally:
            perf.disable()
        counters = dict(perf.get().counters)
        perf.reset()
        assert counters.get("partition.categorical.index_path", 0) == 1
        assert counters.get("partition.categorical.scan_path", 0) == 0
