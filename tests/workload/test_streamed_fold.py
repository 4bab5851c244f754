"""Differential tests: folding a streamed log equals folding the loaded one.

``preprocess_workload(read_log(path))`` parses each line inside the fold
and drops it once folded; ``preprocess_workload(Workload.load(path))``
folds the materialized log.  Random log files mix blank and ``--`` lines,
IN conditions on numeric attributes, ranges on categorical attributes,
attributes the schema lacks and, sometimes, one bad line.  Both folds
must build the same count tables, count the same
``workload.queries_folded``, or fail with the same ``path:line`` error.
Tables are compared rather than snapshot bytes, because
``SplitPointsTable.version`` is unique to each process.
"""

import gc
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.relational.schema import Attribute, TableSchema
from repro.relational.types import AttributeKind, DataType
from repro.workload.log import Workload, read_log
from repro.workload.preprocess import preprocess_workload

SCHEMA = TableSchema(
    "T",
    (
        Attribute("city", DataType.TEXT),
        Attribute("zip", DataType.INT, kind=AttributeKind.CATEGORICAL),
        Attribute("price", DataType.INT),
        Attribute("area", DataType.FLOAT),
    ),
)
INTERVALS = {"price": 5.0, "area": 0.5}
NUMERIC = ("price", "area")

INTEGERS = st.integers(0, 40)
DECIMALS = st.integers(0, 400).map(lambda n: f"{n / 40:.3f}")


def in_list(literals):
    return st.lists(literals, min_size=1, max_size=3).map(
        lambda values: "IN (" + ", ".join(values) + ")"
    )


def ranges(literals):
    return st.one_of(
        st.tuples(literals, literals).map(
            lambda pair: "BETWEEN {} AND {}".format(*sorted(pair, key=float))
        ),
        st.tuples(st.sampled_from([">=", ">", "<=", "<", "="]), literals).map(
            " ".join
        ),
    )


#: One condition per attribute; ``garage`` and ``pool`` are not in SCHEMA.
CONDITIONS = {
    "city": in_list(st.sampled_from(["'a'", "'b'", "'c'"])),
    "zip": st.one_of(
        in_list(st.integers(98000, 98004).map(str)),
        ranges(st.integers(98000, 98004).map(str)),  # range on a categorical
    ),
    "price": st.one_of(in_list(INTEGERS.map(str)), ranges(INTEGERS.map(str))),
    "area": st.one_of(in_list(DECIMALS), ranges(DECIMALS)),
    "garage": ranges(INTEGERS.map(str)),
    "pool": in_list(st.sampled_from(["'y'", "'n'"])),
}

BAD_LINES = [
    "SELECT * FROM T WHERE price >= 9 AND price <= 1",
    "SELECT * FROM T WHERE price = 4 AND price = 5",
    "SELEC * FROM T",
]


@st.composite
def query_lines(draw):
    attributes = draw(st.lists(st.sampled_from(sorted(CONDITIONS)), unique=True))
    if not attributes:
        return "SELECT * FROM T"
    conditions = [f"{name} {draw(CONDITIONS[name])}" for name in attributes]
    return "SELECT * FROM T WHERE " + " AND ".join(conditions)


@st.composite
def log_files(draw):
    """Lines of one log file, possibly with a bad line somewhere."""
    lines = draw(
        st.lists(
            st.one_of(
                query_lines(),
                query_lines(),
                st.sampled_from(["", "   ", "-- a comment", "  -- indented"]),
            ),
            max_size=25,
        )
    )
    if draw(st.integers(0, 4)) == 0:
        lines.insert(
            draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES))
        )
    return lines


def fold(log):
    """(count tables, ``workload.queries_folded``) of one fold, or the error."""
    perf.reset()
    perf.enable()
    try:
        try:
            statistics = preprocess_workload(log, SCHEMA, INTERVALS)
        except ValueError as exc:
            return ("ValueError", str(exc))
        return statistics, perf.ACTIVE.counters.get("workload.queries_folded")
    finally:
        perf.reset()
        perf.disable()


def tables(statistics, probes):
    return {
        "N": statistics.total_queries,
        "usage": sorted(statistics.usage.as_rows()),
        "occurrences": {
            name: statistics.occurrence_counts(name).as_rows()
            for name in ("city", "zip")
        },
        "splitpoints": {
            name: statistics.splitpoints_table(name).rows_in_range(-math.inf, math.inf)
            for name in NUMERIC
        },
        "overlaps": [
            statistics.n_overlap_range(name, low, high, high_inclusive=closed)
            for name in NUMERIC
            for low, high in probes
            for closed in (False, True)
        ],
    }


def folds_agree(path, probes):
    streamed = fold(read_log(path))
    try:
        loaded = fold(Workload.load(path))
    except ValueError as exc:
        loaded = ("ValueError", str(exc))
    if loaded[0] == "ValueError" or streamed[0] == "ValueError":
        assert streamed == loaded
        return
    assert tables(streamed[0], probes) == tables(loaded[0], probes)
    assert streamed[1] == loaded[1] == len(Workload.load(path))


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    log_files(),
    st.lists(st.tuples(st.floats(0, 45), st.floats(0, 45)).map(sorted), max_size=6),
)
def test_streamed_fold_equals_materialized_fold(lines, probes):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "w.sql"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        folds_agree(path, probes)


def test_bad_line_stops_the_fold_and_closes_the_file(tmp_path):
    path = tmp_path / "w.sql"
    path.write_text(
        "SELECT * FROM T WHERE price IN (3)\n"
        "\n"
        f"{BAD_LINES[0]}\n"
        "SELECT * FROM T WHERE city IN ('a')\n"
    )
    opened = []
    real_open = Path.open

    def recording_open(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        opened.append(handle)
        return handle

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with mock.patch.object(Path, "open", recording_open):
            with pytest.raises(ValueError, match="w.sql:3: "):
                preprocess_workload(read_log(path), SCHEMA, INTERVALS)
        gc.collect()
    assert len(opened) == 1 and opened[0].closed
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
