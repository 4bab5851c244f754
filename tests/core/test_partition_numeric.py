"""Tests for numeric splitpoint partitioning (Section 5.1.3)."""

import math
import random

import pytest

from repro.core.algorithm import CostBasedCategorizer
from repro.core.config import CategorizerConfig
from repro.core.partition.numeric import (
    NumericPartitioner,
    bucketize,
    equi_width_partition,
    equi_width_splitpoints,
)
from repro.data.homes import list_property_schema
from repro.relational.expressions import RangePredicate
from repro.relational.query import SelectQuery
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.workload.log import Workload
from repro.workload.preprocess import preprocess_workload
from tests.relational.reference_rowstore import LAYOUTS


def make_stats(ranges):
    sql = [
        f"SELECT * FROM ListProperty WHERE price BETWEEN {lo} AND {hi}"
        for lo, hi in ranges
    ]
    workload = Workload.from_sql_strings(sql)
    return preprocess_workload(workload, list_property_schema(), {"price": 1_000})


def make_rows(prices):
    table = Table(list_property_schema())
    for price in prices:
        table.insert({"price": price})
    return table.all_rows()


@pytest.fixture
def stats():
    # Goodness: 5000 -> 4 (2 ends + 2 starts), 8000 -> 2, 2000 -> 1.
    return make_stats(
        [(2_000, 5_000), (1_000, 5_000), (5_000, 8_000), (5_000, 9_000), (8_000, 9_500)]
    )


class TestSplitpointSelection:
    def test_rightmost_bucket_counts_values_at_vmax(self):
        # The last bucket is closed at vmax, so the two 10_000s fill it.
        stats = make_stats([(1_000, 5_000), (5_000, 10_000)])
        rows = make_rows([1_000, 2_000, 3_000, 10_000, 10_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        config = CategorizerConfig(bucket_count=2, min_bucket_tuples=2)
        partitioner = NumericPartitioner("price", stats, config, query=query)
        assert partitioner.select_splitpoints(rows) == [5_000]

    def test_top_goodness_selected(self, stats):
        rows = make_rows([1_500, 3_000, 6_000, 7_000, 9_000, 4_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        partitioner = NumericPartitioner(
            "price", stats, CategorizerConfig(bucket_count=3), query=query
        )
        selected = partitioner.select_splitpoints(rows)
        assert selected == [5_000, 8_000]

    def test_unnecessary_splitpoint_skipped(self, stats):
        # No tuples above 5000: splitting at 5000 or 8000 would create an
        # empty right bucket, so both are unnecessary and the partitioner
        # falls through to 2000 (Example 5.1's skip behaviour).
        rows = make_rows([1_500, 2_500, 3_000, 4_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        partitioner = NumericPartitioner(
            "price", stats, CategorizerConfig(bucket_count=3), query=query
        )
        assert partitioner.select_splitpoints(rows) == [2_000]

    def test_skip_then_take_next_best(self, stats):
        # Tuples exist on both sides of 5000 and 2000 but not 8000: the
        # partitioner takes 5000 (goodness 4), skips 8000, selects 2000.
        rows = make_rows([1_500, 2_500, 3_000, 6_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        partitioner = NumericPartitioner(
            "price", stats, CategorizerConfig(bucket_count=3), query=query
        )
        assert partitioner.select_splitpoints(rows) == [2_000, 5_000]

    def test_min_bucket_tuples_enforced(self, stats):
        rows = make_rows([1_500, 3_000, 6_000, 9_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        config = CategorizerConfig(bucket_count=5, min_bucket_tuples=2)
        partitioner = NumericPartitioner("price", stats, config, query=query)
        selected = partitioner.select_splitpoints(rows)
        for splitpoint in selected:
            below = sum(1 for p in [1_500, 3_000, 6_000, 9_000] if p < splitpoint)
            assert below >= 2 and 4 - below >= 2

    def test_empty_rows_select_nothing(self, stats):
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        partitioner = NumericPartitioner(
            "price", stats, CategorizerConfig(), query=query
        )
        assert partitioner.select_splitpoints(make_rows([])) == []


class TestRangeResolution:
    def test_range_from_query(self, stats):
        query = SelectQuery("ListProperty", RangePredicate("price", 2_000, 9_000))
        partitioner = NumericPartitioner("price", stats, CategorizerConfig(), query=query)
        assert (partitioner.vmin, partitioner.vmax) == (2_000, 9_000)

    def test_range_from_data_when_query_silent(self, stats):
        rows = make_rows([1_200, 8_800])
        partitioner = NumericPartitioner(
            "price", stats, CategorizerConfig(), query=None, root_rows=rows
        )
        assert (partitioner.vmin, partitioner.vmax) == (1_200, 8_800)

    def test_one_sided_query_mixes_sources(self, stats):
        rows = make_rows([1_200, 8_800])
        query = SelectQuery(
            "ListProperty",
            RangePredicate("price", float("-inf"), 6_000),
        )
        partitioner = NumericPartitioner(
            "price", stats, CategorizerConfig(), query=query, root_rows=rows
        )
        assert (partitioner.vmin, partitioner.vmax) == (1_200, 6_000)

    def test_no_information_degenerates(self, stats):
        partitioner = NumericPartitioner("price", stats, CategorizerConfig())
        assert partitioner.vmin == partitioner.vmax


class TestPartition:
    def test_buckets_ascending_and_cover(self, stats):
        rows = make_rows([1_500, 3_000, 6_000, 7_000, 9_000, 4_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        partitioner = NumericPartitioner(
            "price", stats, CategorizerConfig(bucket_count=3), query=query
        )
        parts = partitioner.partition(rows)
        bounds = [(label.low, label.high) for label, _ in parts]
        assert bounds == sorted(bounds)
        assert sum(len(r) for _, r in parts) == 6

    def test_last_bucket_inclusive(self, stats):
        rows = make_rows([10_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        partitioner = NumericPartitioner(
            "price", stats, CategorizerConfig(), query=query
        )
        parts = partitioner.partition(rows)
        assert sum(len(r) for _, r in parts) == 1
        assert parts[-1][0].high_inclusive

    def test_exploration_probability(self, stats):
        partitioner = NumericPartitioner(
            "price",
            stats,
            CategorizerConfig(),
            query=SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000)),
        )
        from repro.core.labels import NumericLabel

        # [6000, 7000) overlaps ranges (5000,8000) and (5000,9000) -> 2/5.
        label = NumericLabel("price", 6_000, 7_000)
        assert partitioner.exploration_probability(label) == pytest.approx(2 / 5)


class TestBucketize:
    def test_tuples_outside_range_dropped(self):
        rows = make_rows([500, 1_500, 2_500, 99_000])
        parts = bucketize("price", rows, 1_000, 3_000, [2_000])
        assert sum(len(r) for _, r in parts) == 2

    def test_empty_buckets_removed(self):
        rows = make_rows([1_500])
        parts = bucketize("price", rows, 1_000, 3_000, [2_000])
        assert len(parts) == 1

    def test_no_splitpoints_single_bucket(self):
        rows = make_rows([1_500, 2_500])
        parts = bucketize("price", rows, 1_000, 3_000, [])
        assert len(parts) == 1
        assert len(parts[0][1]) == 2

    def test_boundary_value_goes_right(self):
        rows = make_rows([2_000])
        parts = bucketize("price", rows, 1_000, 3_000, [2_000])
        label, bucket = parts[0]
        assert label.low == 2_000 and len(bucket) == 1


class TestEquiWidth:
    def test_splitpoints_strictly_inside_range(self):
        assert equi_width_splitpoints(500, 3_500, 1_000) == [1_000, 2_000, 3_000]
        assert equi_width_splitpoints(1_000, 3_000, 1_000) == [2_000]

    def test_splits_at_width_multiples(self):
        rows = make_rows([1_200, 2_700, 4_100, 4_900])
        parts = equi_width_partition("price", rows, 1_000, 5_000, 2_000)
        bounds = [(label.low, label.high) for label, _ in parts]
        assert bounds == [(1_000, 2_000), (2_000, 4_000), (4_000, 5_000)]

    def test_empty_buckets_removed(self):
        rows = make_rows([1_200, 9_900])
        parts = equi_width_partition("price", rows, 1_000, 10_000, 1_000)
        assert len(parts) == 2

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            equi_width_partition("price", make_rows([1]), 0, 10, 0)


class TestAutoBucketCount:
    def test_auto_mode_uses_goodness_distribution(self):
        # One dominant splitpoint and many weak ones: auto-m should pick few.
        ranges = [(2_000, 5_000)] * 20 + [(1_000, 3_000), (6_000, 9_000)]
        stats = make_stats(ranges)
        rows = make_rows(list(range(1_000, 10_000, 500)))
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        config = CategorizerConfig(auto_bucket_count=True, max_auto_buckets=10)
        partitioner = NumericPartitioner("price", stats, config, query=query)
        selected = partitioner.select_splitpoints(rows)
        assert 1 <= len(selected) <= 3
        assert 5_000 in selected


class TestPartitionCaching:
    """A memo must change only where results come from, never what they are."""

    def test_cached_equals_uncached(self, stats):
        rows = make_rows([1_500, 3_000, 6_000, 7_000, 9_000, 4_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        config = CategorizerConfig(bucket_count=3)
        cached = NumericPartitioner(
            "price", stats, config, query=query, memos={rows: {}}
        )
        uncached = NumericPartitioner("price", stats, config, query=query)
        as_comparable = lambda parts: [(label, r.indices) for label, r in parts]
        assert cached.sizes(rows) == uncached.sizes(rows)
        assert as_comparable(cached.partition(rows)) == as_comparable(
            uncached.partition(rows)
        )

    def test_repeat_partition_served_from_view_cache(self, stats):
        """Re-categorizing one result with a ``BuildMemo`` handle serves
        every partitioning from the handle: no partitioner runs again."""
        from repro import perf
        from repro.core.memo import BuildMemo
        from repro.render.treeview import render_tree

        rows = make_rows([1_500, 3_000, 6_000, 7_000, 9_000, 4_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        categorizer = CostBasedCategorizer(
            stats,
            CategorizerConfig(
                bucket_count=3, min_bucket_tuples=1, max_tuples_per_category=2
            ),
        )
        memo = BuildMemo()
        first = categorizer.categorize(rows, query, memo=memo)
        perf.reset()
        perf.enable()
        try:
            second = categorizer.categorize(rows, query, memo=memo)
        finally:
            perf.disable()
        counters = dict(perf.get().counters)
        perf.reset()
        assert first.root.children, "the tree must partition at least once"
        assert counters.get("categorize.calls") == 1
        assert counters.get("partition.numeric.calls", 0) == 0
        assert render_tree(second) == render_tree(first)
        # A fresh build without the handle partitions again.
        perf.enable()
        try:
            categorizer.categorize(rows, query)
        finally:
            perf.disable()
        assert perf.get().counters.get("partition.numeric.calls", 0) >= 1
        perf.reset()

    def test_splitpoint_change_misses_stale_entry(self):
        # New workload evidence changes the selected splitpoints, which are
        # part of the memo key: the memo must NOT serve the old bucketing.
        from repro.workload.model import WorkloadQuery

        stats = make_stats([(2_000, 5_000), (1_000, 5_000)])
        rows = make_rows([1_500, 3_000, 6_000, 7_000, 9_000, 4_000])
        query = SelectQuery("ListProperty", RangePredicate("price", 1_000, 10_000))
        config = CategorizerConfig(bucket_count=2, min_bucket_tuples=1)
        memos = {rows: {}}  # one node memo, kept across the update
        before = NumericPartitioner(
            "price", stats, config, query=query, memos=memos
        ).sizes(rows)
        for _ in range(5):
            stats.record_query(
                WorkloadQuery.from_sql(
                    "SELECT * FROM ListProperty WHERE price BETWEEN 7000 AND 9000"
                )
            )
        partitioner = NumericPartitioner(
            "price", stats, config, query=query, memos=memos
        )
        after = partitioner.sizes(rows)
        assert [label for label, _ in before] != [label for label, _ in after]
        assert after == [(label, len(r)) for label, r in partitioner.partition(rows)]


class TestNonFiniteValues:
    """NaN and ±inf fall in no bucket, so they neither count toward a
    bucket's size nor set (vmin, vmax)."""

    SCHEMA = TableSchema("T", (Attribute("x", DataType.FLOAT),))

    @staticmethod
    def x_stats(ranges):
        sql = [f"SELECT * FROM T WHERE x BETWEEN {lo} AND {hi}" for lo, hi in ranges]
        return preprocess_workload(
            Workload.from_sql_strings(sql), TestNonFiniteValues.SCHEMA, {"x": 10}
        )

    def x_rows(self, layout, values):
        return LAYOUTS[layout].from_columns(self.SCHEMA, {"x": values}).all_rows()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_nan_first_value_does_not_bound_the_range(self, layout):
        rows = self.x_rows(
            layout, [math.nan, 30.0, 10.0, math.inf, 80.0, -math.inf, 50.0] * 4
        )
        stats = self.x_stats([(20, 40), (40, 60), (10, 70)])
        partitioner = NumericPartitioner("x", stats, CategorizerConfig(), root_rows=rows)
        assert (partitioner.vmin, partitioner.vmax) == (10.0, 80.0)
        tree = CostBasedCategorizer(
            stats, CategorizerConfig(max_tuples_per_category=3)
        ).categorize(rows)
        tree.validate()
        assert tree.root.child_attribute == "x"

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_splitpoint_necessity_ignores_nan(self, layout):
        """Every bucket keeps ``min_bucket_tuples`` of the tuples it holds."""
        stats = self.x_stats([(low, low + 10) for low in range(0, 100, 10)])
        config = CategorizerConfig(bucket_count=5, min_bucket_tuples=5)
        rng = random.Random(17)
        for _ in range(60):
            values = [float(rng.randrange(100)) for _ in range(40)]
            for _ in range(rng.randrange(1, 10)):
                values.insert(rng.randrange(len(values) + 1), math.nan)
            rows = self.x_rows(layout, values)
            partitioner = NumericPartitioner("x", stats, config, root_rows=rows)
            buckets = partitioner.partition(rows)
            if len(buckets) > 1:
                assert min(len(bucket) for _, bucket in buckets) >= 5
