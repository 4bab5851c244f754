"""Tests for the one-pass workload preprocessor."""

import pytest

from repro import perf
from repro.data.homes import list_property_schema
from repro.workload.log import Workload
from repro.workload.preprocess import preprocess_workload


@pytest.fixture
def tiny_stats():
    workload = Workload.from_sql_strings(
        [
            "SELECT * FROM ListProperty WHERE neighborhood IN ('A, WA', 'B, WA')",
            "SELECT * FROM ListProperty WHERE neighborhood IN ('A, WA') "
            "AND price BETWEEN 200000 AND 300000",
            "SELECT * FROM ListProperty WHERE price BETWEEN 250000 AND 300000",
            "SELECT * FROM ListProperty WHERE bedroomcount >= 3",
        ]
    )
    return preprocess_workload(
        workload, list_property_schema(), {"price": 5_000}
    )


class TestUsage:
    def test_total_queries(self, tiny_stats):
        assert tiny_stats.total_queries == 4

    def test_n_attr(self, tiny_stats):
        assert tiny_stats.n_attr("neighborhood") == 2
        assert tiny_stats.n_attr("price") == 2
        assert tiny_stats.n_attr("bedroomcount") == 1
        assert tiny_stats.n_attr("propertytype") == 0

    def test_usage_fraction(self, tiny_stats):
        assert tiny_stats.usage_fraction("price") == 0.5


class TestOccurrences:
    def test_occ(self, tiny_stats):
        assert tiny_stats.occ("neighborhood", "A, WA") == 2
        assert tiny_stats.occ("neighborhood", "B, WA") == 1
        assert tiny_stats.occ("neighborhood", "C, WA") == 0

    def test_numeric_attribute_has_no_occurrence_table(self, tiny_stats):
        with pytest.raises(KeyError, match="categorical"):
            tiny_stats.occurrence_counts("price")

    def test_n_overlap_values_single(self, tiny_stats):
        assert tiny_stats.n_overlap_values("neighborhood", {"A, WA"}) == 2

    def test_n_overlap_values_clamped_to_n_attr(self, tiny_stats):
        # Summing occ over both values would double-count query 1.
        overlap = tiny_stats.n_overlap_values("neighborhood", {"A, WA", "B, WA"})
        assert overlap == 2  # clamped to NAttr(neighborhood)


class TestSplitpoints:
    def test_goodness_recorded(self, tiny_stats):
        table = tiny_stats.splitpoints_table("price")
        assert table.goodness(300_000) == 2  # both ranges end there
        assert table.goodness(200_000) == 1
        assert table.goodness(250_000) == 1

    def test_categorical_attribute_has_no_splitpoints(self, tiny_stats):
        with pytest.raises(KeyError, match="numeric"):
            tiny_stats.splitpoints_table("neighborhood")

    def test_n_overlap_range(self, tiny_stats):
        # Bucket [225K, 275K) overlaps both price ranges.
        assert tiny_stats.n_overlap_range("price", 225_000, 275_000) == 2
        # Bucket [0, 100K) overlaps neither.
        assert tiny_stats.n_overlap_range("price", 0, 100_000) == 0

    def test_one_sided_condition_indexed(self, tiny_stats):
        # bedroomcount >= 3 overlaps [4, 6).
        assert tiny_stats.n_overlap_range("bedroomcount", 4, 6) == 1


class TestRobustness:
    def test_unknown_attribute_counts_in_usage_only(self):
        workload = Workload.from_sql_strings(
            ["SELECT * FROM ListProperty WHERE mystery IN ('x')"]
        )
        stats = preprocess_workload(workload, list_property_schema())
        assert stats.n_attr("mystery") == 1
        with pytest.raises(KeyError):
            stats.occurrence_counts("mystery")

    def test_empty_workload(self):
        stats = preprocess_workload(Workload([]), list_property_schema())
        assert stats.total_queries == 0
        assert stats.usage_fraction("price") == 0.0

    def test_real_workload_has_expected_retained_attributes(self, statistics):
        # The x = 0.4 threshold retains the paper's six attributes on the
        # shared synthetic workload (Section 5.1.1 calibration).
        retained = {
            a for a in statistics.schema.names()
            if statistics.usage_fraction(a) >= 0.4
        }
        assert retained == {
            "neighborhood", "price", "bedroomcount",
            "bathcount", "propertytype", "squarefootage",
        }


class TestInOnNumericAttribute:
    """Regression: IN-conditions on numeric attributes must feed the
    SplitPoints table and range index as degenerate point ranges, not be
    silently dropped (each condition feeds the table its shape permits)."""

    @pytest.fixture
    def numeric_in_stats(self):
        workload = Workload.from_sql_strings(
            [
                "SELECT * FROM ListProperty WHERE price IN (200000, 300000)",
                "SELECT * FROM ListProperty WHERE price BETWEEN 250000 AND 350000",
            ]
        )
        return preprocess_workload(
            workload, list_property_schema(), {"price": 5_000}
        )

    def test_counts_in_usage(self, numeric_in_stats):
        assert numeric_in_stats.n_attr("price") == 2

    def test_feeds_splitpoints_as_point_ranges(self, numeric_in_stats):
        table = numeric_in_stats.splitpoints_table("price")
        # A point range [v, v] starts AND ends at snap(v).
        assert table.start_count(200_000) == 1
        assert table.end_count(200_000) == 1
        assert table.goodness(200_000) == 2
        assert table.goodness(300_000) == 2

    def test_contributes_to_n_overlap(self, numeric_in_stats):
        # Bucket [150000, 250000) contains the point 200000 and overlaps
        # nothing else from the IN-query; the BETWEEN query misses it too.
        assert numeric_in_stats.n_overlap_range("price", 150_000, 250_000) == 1
        # Bucket [250000, 400000): point 300000 + the BETWEEN range.
        assert numeric_in_stats.n_overlap_range("price", 250_000, 400_000) == 2

    def test_non_numeric_literals_in_numeric_in_set_are_skipped(self):
        from repro.relational.expressions import InPredicate
        from repro.relational.query import SelectQuery
        from repro.workload.model import WorkloadQuery

        query = WorkloadQuery.from_query(
            SelectQuery("ListProperty", InPredicate("price", ["cheap", 100_000]))
        )
        stats = preprocess_workload(
            Workload([query]), list_property_schema(), {"price": 5_000}
        )
        assert stats.n_attr("price") == 1
        assert stats.splitpoints_table("price").goodness(100_000) == 2
        assert stats.range_index("price").total_ranges == 1


class TestInstrumentation:
    def test_one_fold_is_one_duration_observation(self):
        workload = Workload.from_sql_strings(
            ["SELECT * FROM ListProperty WHERE price BETWEEN 200000 AND 300000"] * 3
        )
        perf.reset()
        perf.enable()
        try:
            preprocess_workload(workload, list_property_schema(), {})
            assert perf.get().durations["workload.preprocess"].count == 1
            assert perf.get().spans.children["workload.preprocess"].calls == 1
            assert (
                'repro_duration_seconds_count{name="workload.preprocess"} 1\n'
                in perf.export_prometheus()
            )
        finally:
            perf.reset()
            perf.disable()
