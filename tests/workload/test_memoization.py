"""Cache-invalidation tests: ``record_query`` must update every
probability ingredient — no stale ``usage_fraction``, ``occ``, memoized
``n_overlap_range`` or memoized split-point ordering may survive a live
log update.
"""

import pytest

from repro.data.homes import list_property_schema
from repro.workload.log import Workload
from repro.workload.model import WorkloadQuery
from repro.workload.preprocess import preprocess_workload


BASE_SQL = [
    "SELECT * FROM ListProperty WHERE neighborhood IN ('A, WA')",
    "SELECT * FROM ListProperty WHERE price BETWEEN 200000 AND 300000",
    "SELECT * FROM ListProperty WHERE neighborhood IN ('B, WA') "
    "AND price BETWEEN 250000 AND 350000",
]


@pytest.fixture
def stats():
    return preprocess_workload(
        Workload.from_sql_strings(BASE_SQL),
        list_property_schema(),
        {"price": 5_000},
    )


class TestMemoizationCorrectness:
    def test_memos_equal_direct_lookups(self, stats):
        """Memoized overlap counts and goodness orders equal the tables'
        own answers, on the first lookup and on a memo hit."""
        index = stats.range_index("price")
        for low, high in ((150_000, 260_000), (0, 100_000), (150_000, 260_000)):
            assert stats.n_overlap_range("price", low, high) == (
                index.count_overlapping(low, high)
            )
        table = stats.splitpoints_table("price")
        for _ in range(2):
            assert table.best_splitpoints(0, 1_000_000) == [
                row.splitpoint
                for row in sorted(
                    table.rows_in_range(0, 1_000_000),
                    key=lambda row: (-row.goodness, row.splitpoint),
                )
            ]

    def test_repeated_lookup_served_from_memo(self, stats):
        first = stats.n_overlap_range("price", 150_000, 260_000)
        assert ("price") in stats._range_memo
        assert stats.n_overlap_range("price", 150_000, 260_000) == first


class TestRecordQueryInvalidation:
    """record_query must visibly update every cached probability."""

    def test_usage_fraction_updates(self, stats):
        before = stats.usage_fraction("bedroomcount")
        assert before == 0.0
        stats.record_query(
            WorkloadQuery.from_sql(
                "SELECT * FROM ListProperty WHERE bedroomcount BETWEEN 3 AND 4"
            )
        )
        assert stats.usage_fraction("bedroomcount") == pytest.approx(1 / 4)

    def test_unrelated_attribute_fraction_also_updates(self, stats):
        # N is the shared denominator: a query touching ONLY bedroomcount
        # still dilutes neighborhood's fraction.
        before = stats.usage_fraction("neighborhood")
        stats.record_query(
            WorkloadQuery.from_sql(
                "SELECT * FROM ListProperty WHERE bedroomcount BETWEEN 3 AND 4"
            )
        )
        after = stats.usage_fraction("neighborhood")
        assert after == pytest.approx(2 / 4)
        assert after < before

    def test_occ_updates(self, stats):
        assert stats.occ("neighborhood", "C, WA") == 0
        stats.record_query(
            WorkloadQuery.from_sql(
                "SELECT * FROM ListProperty WHERE neighborhood IN ('C, WA')"
            )
        )
        assert stats.occ("neighborhood", "C, WA") == 1

    def test_n_overlap_range_updates(self, stats):
        assert stats.n_overlap_range("price", 400_000, 500_000) == 0
        assert stats._range_memo["price"]  # memo populated
        stats.record_query(
            WorkloadQuery.from_sql(
                "SELECT * FROM ListProperty WHERE price BETWEEN 420000 AND 480000"
            )
        )
        assert stats.n_overlap_range("price", 400_000, 500_000) == 1

    def test_n_overlap_range_update_resorts_lazy_range_index(self, stats):
        # The memoized lookup sits on top of RangeIndex's lazy re-sort:
        # record_query marks the index dirty AND drops the memo entry, so
        # the next lookup re-sorts and counts the new range.
        index = stats.range_index("price")
        stats.n_overlap_range("price", 0, 1_000_000)
        assert index.is_finalized
        stats.record_query(
            WorkloadQuery.from_sql(
                "SELECT * FROM ListProperty WHERE price BETWEEN 100000 AND 120000"
            )
        )
        assert not index.is_finalized  # dirty until the next count
        assert stats.n_overlap_range("price", 0, 1_000_000) == 3
        assert index.is_finalized

    def test_best_splitpoints_update(self, stats):
        table = stats.splitpoints_table("price")
        before = table.best_splitpoints(0, 1_000_000)
        assert before[0] == 200_000  # all goodness 1; ascending tie-break
        # Nine users asking 420000..480000 make those the top splitpoints.
        for _ in range(9):
            stats.record_query(
                WorkloadQuery.from_sql(
                    "SELECT * FROM ListProperty WHERE price BETWEEN 420000 AND 480000"
                )
            )
        after = table.best_splitpoints(0, 1_000_000)
        assert after[:2] == [420_000, 480_000]
        assert after is not before

    def test_in_on_numeric_invalidates_range_memo(self, stats):
        assert stats.n_overlap_range("price", 199_000, 201_000) == 1
        stats.record_query(
            WorkloadQuery.from_sql(
                "SELECT * FROM ListProperty WHERE price IN (200000)"
            )
        )
        assert stats.n_overlap_range("price", 199_000, 201_000) == 2
