"""Tests for Workload collections."""

import re

import pytest

from repro.workload.log import Workload, read_log
from repro.workload.model import WorkloadQuery


SQL = [
    "SELECT * FROM T WHERE city IN ('a')",
    "SELECT * FROM T WHERE price <= 100",
    "SELECT * FROM T WHERE city IN ('b') AND price BETWEEN 1 AND 2",
    "SELECT * FROM T WHERE bedroomcount >= 3",
]


@pytest.fixture
def small_workload():
    return Workload.from_sql_strings(SQL)


class TestConstruction:
    def test_from_sql_strings(self, small_workload):
        assert len(small_workload) == 4

    def test_blank_lines_skipped(self):
        w = Workload.from_sql_strings(["", "  ", SQL[0]])
        assert len(w) == 1

    def test_comment_lines_skipped(self):
        w = Workload.from_sql_strings(["-- a comment", SQL[0]])
        assert len(w) == 1

    def test_bad_entry_reports_index(self):
        with pytest.raises(ValueError, match="workload entry 1"):
            Workload.from_sql_strings(
                [SQL[0], "SELECT * FROM T WHERE price >= 5 AND price <= 1"]
            )

    def test_indexing(self, small_workload):
        assert small_workload[1].constrains("price")


class TestFileRoundTrip:
    def test_save_and_load(self, small_workload, tmp_path):
        path = tmp_path / "workload.sql"
        small_workload.save(path)
        loaded = Workload.load(path)
        assert len(loaded) == len(small_workload)
        assert [str(q) for q in loaded] == [str(q) for q in small_workload]

    def test_read_log_streams_the_same_queries(self, small_workload, tmp_path):
        path = tmp_path / "workload.sql"
        path.write_text("-- header\n\n" + "\n".join(SQL) + "\n")
        stream = read_log(path)
        assert iter(stream) is stream  # one pass, nothing held
        assert [str(q) for q in stream] == [str(q) for q in small_workload]

    def test_bad_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "w.sql"
        path.write_text(
            SQL[0] + "\n\n" + "SELECT * FROM T WHERE price >= 5 AND price <= 1\n"
        )
        message = f"{path}:3: contradictory range conditions on 'price'"
        expected = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=expected):
            list(read_log(path))
        with pytest.raises(ValueError, match=expected):
            Workload.load(path)


class TestHoldout:
    def test_without_removes_by_identity(self, small_workload):
        held = [small_workload[0], small_workload[2]]
        remaining = small_workload.without(held)
        assert len(remaining) == 2
        assert all(q is not held[0] and q is not held[1] for q in remaining)

    def test_without_does_not_remove_equal_duplicates(self):
        w = Workload.from_sql_strings([SQL[0], SQL[0]])
        remaining = w.without([w[0]])
        assert len(remaining) == 1

    def test_sample_deterministic(self, small_workload):
        a = small_workload.sample(2, seed=3)
        b = small_workload.sample(2, seed=3)
        assert [str(q) for q in a] == [str(q) for q in b]

    def test_sample_too_many_rejected(self, small_workload):
        with pytest.raises(ValueError, match="cannot sample"):
            small_workload.sample(10)

    def test_disjoint_subsets(self, small_workload):
        subsets = small_workload.disjoint_subsets(2, 2, seed=1)
        assert len(subsets) == 2
        flattened = [id(q) for s in subsets for q in s]
        assert len(flattened) == len(set(flattened)) == 4

    def test_filter(self, small_workload):
        priced = small_workload.filter(lambda q: q.constrains("price"))
        assert len(priced) == 2
