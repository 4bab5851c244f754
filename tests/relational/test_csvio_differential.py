"""Differential tests: chunked ``read_csv`` against the per-row loop.

Both loaders read the same file — ``read_csv`` into the column store, the
reference loop into the row oracle (``reference_rowstore.py``) — and must
produce identical columns, the same strict-mode ``path:line`` error, and
the same lenient ``csv.bad_rows{reason=...}`` counts.  Defects
— NULLs, NULLs in non-nullable columns, ragged rows, unparseable values —
land before, on and after chunk boundaries: the random cases shrink the
chunk to a few rows, and one case runs at the real :data:`CHUNK_ROWS`.
"""

import csv
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.relational import csvio
from repro.relational.csvio import read_csv
from repro.relational.schema import Attribute, TableSchema
from repro.relational.types import AttributeKind, DataType
from tests.relational.reference_csvio import reference_read_csv

SCHEMA = TableSchema(
    "T",
    (
        Attribute("city", DataType.TEXT),
        Attribute("price", DataType.INT),
        Attribute("area", DataType.FLOAT, nullable=False),
        Attribute("pool", DataType.BOOL),
        Attribute("zip", DataType.INT, kind=AttributeKind.CATEGORICAL, nullable=False),
    ),
)

#: File column order: shuffled against the schema, with one extra column.
HEADER = ["zip", "extra", "city", "area", "price", "pool"]

FIELDS = {
    "zip": st.one_of(
        st.integers(0, 99_999).map(str), st.sampled_from(["", "9x", " 7"])
    ),
    "extra": st.sampled_from(["", "junk", "1"]),
    "city": st.one_of(
        st.text(alphabet="ab ,'\"\n", max_size=6), st.sampled_from(["Seattle", "٣"])
    ),
    "area": st.one_of(
        st.floats(allow_nan=False, width=32).map(repr),
        st.sampled_from(["", "12", "1e3", "inf", "nan", "big"]),
    ),
    "price": st.one_of(
        st.integers(-10**6, 10**6).map(str), st.sampled_from(["", "1.5", "1_000", "x"])
    ),
    "pool": st.sampled_from(["", "true", "F", "1", "yes", "maybe"]),
}


@st.composite
def records(draw):
    row = [draw(FIELDS[name]) for name in HEADER]
    shape = draw(st.sampled_from(["whole"] * 6 + ["short", "long", "blank"]))
    if shape == "short":
        return row[: draw(st.integers(1, len(row) - 1))]
    if shape == "long":
        return row + ["surplus"]
    if shape == "blank":
        return []
    return row


def write(path, rows, header=HEADER):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def load(loader, path, strict):
    """(columns or error message, csv.* counters) of one load."""
    perf.reset()
    perf.enable()
    try:
        try:
            table = loader(SCHEMA, path, strict=strict)
        except ValueError as exc:
            result = ("ValueError", str(exc))
        else:
            result = {name: repr(list(table.column(name))) for name in SCHEMA.names()}
            result["len"] = len(table)
        counters = {
            name: value
            for name, value in perf.ACTIVE.counters.items()
            if name.startswith("csv.")
        }
        return result, counters
    finally:
        perf.reset()
        perf.disable()


def assert_loaders_agree(path):
    for strict in (True, False):
        assert load(read_csv, path, strict) == load(
            reference_read_csv, path, strict
        ), strict


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(records(), max_size=14), st.integers(1, 5))
def test_random_files_load_identically(rows, chunk_rows):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "t.csv"
        write(path, rows)
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
            assert_loaders_agree(path)


GOOD = ["98101", "", "Seattle", "1500.5", "450000", "true"]

DEFECTS = {
    "null": ["98101", "", "", "1500.5", "", ""],
    "null_in_non_nullable": ["98101", "", "Seattle", "", "450000", "true"],
    "short": ["98101", "", "Seattle"],
    "long": GOOD + ["surplus"],
    "unparseable": ["98101", "", "Seattle", "1500.5", "lots", "true"],
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_defect_before_on_and_after_a_chunk_boundary(tmp_path, defect, offset):
    chunk_rows = 4
    rows = [list(GOOD) for _ in range(3 * chunk_rows)]
    rows[chunk_rows + offset] = DEFECTS[defect]
    path = tmp_path / "t.csv"
    write(path, rows)
    with mock.patch.object(csvio, "CHUNK_ROWS", chunk_rows):
        assert_loaders_agree(path)


def test_real_chunk_size_agrees_and_names_the_line(tmp_path):
    rows = [list(GOOD) for _ in range(csvio.CHUNK_ROWS + 2)]
    rows[csvio.CHUNK_ROWS] = DEFECTS["unparseable"]
    path = tmp_path / "t.csv"
    write(path, rows)
    assert_loaders_agree(path)
    # Records count from 1 at the header, so data row i is line i + 2.
    with pytest.raises(ValueError, match=f":{csvio.CHUNK_ROWS + 2}: "):
        read_csv(SCHEMA, path)
