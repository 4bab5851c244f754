"""Tests for CSV round-trip."""

import pytest

from repro.relational.csvio import read_csv, write_csv
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType


@pytest.fixture
def schema():
    return TableSchema(
        "T",
        (Attribute("city", DataType.TEXT), Attribute("price", DataType.INT)),
    )


@pytest.fixture
def table(schema):
    t = Table(schema)
    t.extend(
        [
            {"city": "Seattle, WA", "price": 100},
            {"city": None, "price": 200},
            {"city": "Bellevue", "price": None},
        ]
    )
    return t


class TestRoundTrip:
    def test_preserves_rows_and_nulls(self, table, schema, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv(schema, path)
        assert loaded.to_dicts() == table.to_dicts()

    def test_comma_in_value_survives(self, table, schema, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv(schema, path)
        assert loaded.row(0)["city"] == "Seattle, WA"

    def test_types_restored(self, table, schema, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv(schema, path)
        assert isinstance(loaded.row(0)["price"], int)


class TestReadErrors:
    def test_empty_file_rejected(self, schema, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(schema, path)

    def test_missing_column_rejected(self, schema, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("city\nSeattle\n")
        with pytest.raises(ValueError, match="missing attributes"):
            read_csv(schema, path)

    def test_bad_value_reports_line(self, schema, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("city,price\nSeattle,abc\n")
        with pytest.raises(ValueError, match=":2:"):
            read_csv(schema, path)

    def test_extra_columns_ignored(self, schema, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("city,price,extra\nSeattle,100,zzz\n")
        loaded = read_csv(schema, path)
        assert loaded.to_dicts() == [{"city": "Seattle", "price": 100}]

    def test_short_row_padded_with_nulls(self, schema, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("city,price\nSeattle\n")
        loaded = read_csv(schema, path)
        assert loaded.row(0)["price"] is None


class TestLenientMode:
    """``strict=False``: skip-with-counter instead of aborting the load."""

    @pytest.fixture
    def perf_on(self):
        from repro import perf

        perf.reset()
        perf.enable()
        yield perf.ACTIVE
        perf.reset()
        perf.disable()

    def test_bad_type_skipped_and_counted(self, schema, tmp_path, perf_on):
        path = tmp_path / "t.csv"
        path.write_text("city,price\nSeattle,abc\nBellevue,200\n")
        loaded = read_csv(schema, path, strict=False)
        assert loaded.to_dicts() == [{"city": "Bellevue", "price": 200}]
        assert perf_on.counters["csv.bad_rows{reason=type}"] == 1

    def test_bad_arity_skipped_and_counted(self, schema, tmp_path, perf_on):
        path = tmp_path / "a.csv"
        path.write_text("city,price\nSeattle\nKirkland,100,extra,junk\nBellevue,200\n")
        loaded = read_csv(schema, path, strict=False)
        assert loaded.to_dicts() == [{"city": "Bellevue", "price": 200}]
        assert perf_on.counters["csv.bad_rows{reason=arity}"] == 2

    def test_good_rows_counted(self, schema, tmp_path, perf_on):
        path = tmp_path / "g.csv"
        path.write_text("city,price\nSeattle,100\nBellevue,abc\n")
        read_csv(schema, path, strict=False)
        assert perf_on.counters["csv.rows_loaded"] == 1

    def test_clean_file_identical_between_modes(self, table, schema, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(table, path)
        assert (
            read_csv(schema, path, strict=False).to_dicts()
            == read_csv(schema, path).to_dicts()
        )

    def test_header_errors_still_raise(self, schema, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("city\nSeattle\n")
        with pytest.raises(ValueError, match="missing attributes"):
            read_csv(schema, path, strict=False)


class TestIntOutsideInt64:
    """The column store refuses such INTs, as a malformed row."""

    BIG = "18446744073709551616"  # 2**64

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"city,price\nSeattle,100\nRedmond,{self.BIG}\nBellevue,200\n")
        return path

    @pytest.fixture
    def perf_on(self):
        from repro import perf

        perf.reset()
        perf.enable()
        yield perf.ACTIVE
        perf.reset()
        perf.disable()

    def test_strict_names_path_and_line(self, schema, path):
        with pytest.raises(ValueError, match=r"big\.csv:3: attribute 'price'"):
            read_csv(schema, path)

    def test_lenient_skips_and_counts_the_row(self, schema, path, perf_on):
        loaded = read_csv(schema, path, strict=False)
        assert loaded.to_dicts() == [
            {"city": "Seattle", "price": 100},
            {"city": "Bellevue", "price": 200},
        ]
        assert perf_on.counters["csv.bad_rows{reason=type}"] == 1
        assert perf_on.counters["csv.rows_loaded"] == 2
