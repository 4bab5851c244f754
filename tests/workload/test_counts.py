"""Tests for the count tables of Figures 4(a), 4(b) and 5(b)."""

import math

import pytest

from repro.workload.counts import (
    AttributeUsageCounts,
    OccurrenceCounts,
    RangeIndex,
    SplitPointsTable,
)


class TestAttributeUsageCounts:
    def test_n_attr_counts_queries_not_conditions(self):
        usage = AttributeUsageCounts()
        usage.record_query(["price", "price", "city"])  # one query
        assert usage.n_attr("price") == 1
        assert usage.total_queries == 1

    def test_usage_fraction(self):
        usage = AttributeUsageCounts()
        usage.record_query(["price"])
        usage.record_query(["city"])
        assert usage.usage_fraction("price") == 0.5

    def test_empty_workload_fraction_zero(self):
        assert AttributeUsageCounts().usage_fraction("price") == 0.0

    def test_as_rows_most_used_first(self):
        usage = AttributeUsageCounts()
        usage.record_query(["a", "b"])
        usage.record_query(["b"])
        assert usage.as_rows() == [("b", 2), ("a", 1)]


class TestOccurrenceCounts:
    def test_occ_counts_queries(self):
        occ = OccurrenceCounts("city")
        occ.record_values(["Seattle", "Bellevue"])
        occ.record_values(["Seattle"])
        assert occ.occ("Seattle") == 2
        assert occ.occ("Bellevue") == 1
        assert occ.occ("Tacoma") == 0

    def test_duplicates_within_query_counted_once(self):
        occ = OccurrenceCounts("city")
        occ.record_values(["Seattle", "Seattle"])
        assert occ.occ("Seattle") == 1

    def test_order_by_occurrence(self):
        occ = OccurrenceCounts("city")
        occ.record_values(["b"])
        occ.record_values(["b"])
        occ.record_values(["a"])
        assert occ.order_by_occurrence(["a", "b", "c"]) == ["b", "a", "c"]

    def test_order_ties_deterministic(self):
        occ = OccurrenceCounts("city")
        assert occ.order_by_occurrence(["z", "a"]) == ["a", "z"]


class TestSplitPointsTable:
    def test_version_is_new_after_every_change_and_on_every_copy(self):
        table = SplitPointsTable("price", 5_000)
        seen = {table.version}
        table.record_range(5_000, 10_000)
        seen.add(table.version)
        seen.add(table.copy().version)
        table.best_splitpoints(0, 20_000)  # a read changes nothing
        seen.add(table.version)
        assert len(seen) == 3

    def test_snapping(self):
        table = SplitPointsTable("price", 5_000)
        assert table.snap(203_100) == 205_000
        assert table.snap(202_000) == 200_000

    def test_record_and_goodness(self):
        table = SplitPointsTable("price", 1_000)
        table.record_range(2_000, 5_000)
        table.record_range(5_000, 8_000)
        assert table.start_count(5_000) == 1
        assert table.end_count(5_000) == 1
        assert table.goodness(5_000) == 2

    def test_infinite_bounds_not_recorded(self):
        table = SplitPointsTable("price", 1_000)
        table.record_range(-math.inf, 5_000)
        table.record_range(3_000, math.inf)
        assert table.end_count(5_000) == 1
        assert table.start_count(3_000) == 1
        rows = table.rows_in_range(0, 10_000)
        assert all(not math.isinf(r.splitpoint) for r in rows)

    def test_best_splitpoints_ordered_by_goodness(self):
        table = SplitPointsTable("price", 1_000)
        for _ in range(3):
            table.record_range(2_000, 5_000)
        table.record_range(3_000, 5_000)
        best = table.best_splitpoints(0, 10_000)
        assert best[0] == 5_000  # goodness 4
        assert best[1] == 2_000  # goodness 3

    def test_boundaries_excluded(self):
        table = SplitPointsTable("price", 1_000)
        table.record_range(2_000, 5_000)
        assert 2_000 not in table.best_splitpoints(2_000, 5_000)
        assert 5_000 not in table.best_splitpoints(2_000, 5_000)

    def test_figure_5b_example(self):
        # Reconstructs the paper's Figure 5(b): goodness 130 at 5000,
        # 100 at 8000, 50 at 2000.
        table = SplitPointsTable("price", 1_000)
        for _ in range(10):
            table.record_range(2_000, 3_000)  # start at 2000 (10)
        for _ in range(40):
            table.record_range(1_000, 2_000)  # end at 2000 (40)
        for _ in range(40):
            table.record_range(5_000, 6_000)
        for _ in range(90):
            table.record_range(4_000, 5_000)
        for _ in range(80):
            table.record_range(8_000, 9_000)
        for _ in range(20):
            table.record_range(7_000, 8_000)
        assert table.goodness(5_000) == 130
        assert table.goodness(8_000) == 100
        assert table.goodness(2_000) == 50
        assert table.best_splitpoints(0, 10_000)[:2] == [5_000, 8_000]

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            SplitPointsTable("price", 0)


class TestRangeIndex:
    @pytest.fixture
    def index(self):
        idx = RangeIndex("price")
        idx.record_range(100, 200)
        idx.record_range(150, 300)
        idx.record_range(400, 500)
        idx.finalize()
        return idx

    def test_total(self, index):
        assert index.total_ranges == 3

    def test_count_overlapping_half_open(self, index):
        # Bucket [200, 400): overlaps [150,300] only — [100,200] touches
        # only at 200 which the half-open bucket... includes 200!  A range
        # ending exactly at 200 does overlap [200, 400).
        assert index.count_overlapping(200, 400) == 2

    def test_count_overlapping_disjoint(self, index):
        assert index.count_overlapping(600, 700) == 0

    def test_half_open_excludes_range_starting_at_high(self, index):
        # Bucket [300, 400): [150,300] touches at 300 (overlap); [400,500]
        # starts exactly at the open end, so it does NOT overlap.
        assert index.count_overlapping(300, 400) == 1

    def test_closed_includes_range_starting_at_high(self, index):
        # Closing the bucket at 400 brings [400, 500] in as well.
        assert index.count_overlapping(300, 400, high_inclusive=True) == 2

    def test_append_after_finalize_resorts_lazily(self, index):
        # Live systems stream new log entries: appending after counting
        # must mark the index dirty and re-sort on the next count.
        assert index.count_overlapping(600, 700) == 0
        index.record_range(600, 650)
        assert index.count_overlapping(600, 700) == 1
        assert index.total_ranges == 4

    def test_auto_finalize_on_count(self):
        idx = RangeIndex("price")
        idx.record_range(10, 20)
        assert idx.count_overlapping(15, 25) == 1


class TestRangeIndexLazyResort:
    """Streaming appends must mark the index dirty and re-sort on demand."""

    def test_is_finalized_lifecycle(self):
        idx = RangeIndex("price")
        assert not idx.is_finalized
        idx.record_range(10, 20)
        idx.finalize()
        assert idx.is_finalized
        idx.record_range(5, 15)
        assert not idx.is_finalized
        # counting auto-finalizes and sees both ranges
        assert idx.count_overlapping(12, 18) == 2
        assert idx.is_finalized

    def test_count_after_append_is_correct_not_stale(self):
        idx = RangeIndex("price")
        idx.record_range(100, 200)
        assert idx.count_overlapping(0, 1_000) == 1
        # Append out-of-order endpoints: a stale sorted array would
        # bisect wrongly; the lazy re-sort must fix it.
        idx.record_range(50, 60)
        idx.record_range(300, 400)
        assert idx.count_overlapping(55, 58) == 1
        assert idx.count_overlapping(0, 1_000) == 3
        assert idx.count_overlapping(250, 260) == 0
