"""Performance: the column store at paper scale (>= 500k rows).

The paper categorizes a 1.7M-row MSN HomeAdvisor snapshot; the seed repo
topped out around 30k synthetic rows because the row-at-a-time engine made
bigger tables unpleasant.  This bench builds a 500,000-row relation twice
— in the :class:`~repro.relational.backends.ColumnStore` and in the
reference row store of ``tests/relational/reference_rowstore.py``, from
the same generated columns — and measures two loops, warm:

* the **storage loop** — ``query.execute`` (a three-conjunct selection
  keeping ~30% of the table) followed by one category-level build over
  the result (categorical partition + numeric bucketing), i.e. exactly
  the operations the column store runs on packed arrays.  Acceptance
  floor: the column store must be >= 3x faster than the row oracle here.
  Its 16-city ``IN`` holds ~88% of the rows, past the index-first
  crossover, so the column store scans; the same search narrowed to one
  city (~7%) is seeded from that city's posting list, and both must
  select what the row oracle selects.
* the **serve loop** — the same selection followed by a full cost-based
  categorization.  Tree construction and cost-model math are
  storage-neutral by design (the equivalence suite depends on that), so
  the end-to-end ratio is smaller; it is recorded for honesty and gated
  at >= 1.5x.

Both loops assert observational equivalence before timing anything —
speed without identical results is a bug, not a win.  Measurements
append a ``columnar_scale`` record to ``BENCH_partition.json``; CI's
``columnar-scale`` job gates the ``columnar_ms`` trajectory through
``compare_bench.py``.  A third test traces one attribute's posting-list
build at this scale: it must peak at no more than twice what it keeps.
"""

import gc
import random
import time
import tracemalloc

from repro.core.algorithm import CostBasedCategorizer
from repro.core.config import PAPER_CONFIG
from repro.relational.expressions import (
    Conjunction,
    InPredicate,
    RangePredicate,
)
from repro.relational.query import SelectQuery
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import AttributeKind, DataType
from repro.study.report import format_table
from repro.workload.log import Workload
from repro.workload.preprocess import preprocess_workload

from benchmarks.test_perf_partition import _append_bench_record, _tree_shape
from tests.relational.reference_rowstore import ReferenceTable

SCALE_ROWS = 500_000
SCALE_QUERIES = 2_000
REQUIRED_STORAGE_SPEEDUP = 3.0

CITIES = [f"City{i:02d}" for i in range(24)]
TYPES = ["house", "condo", "townhome", "apartment", "loft", "cabin"]
CONDITIONS = ["new", "good", "fair", "fixer"]

#: Large M keeps the (storage-neutral) tree small, so the serve loop is
#: dominated by the storage-bound work rather than label math.
SCALE_CONFIG = PAPER_CONFIG.with_overrides(
    max_tuples_per_category=2_500,
    separation_intervals={"price": 25_000.0, "sqft": 250.0, "rating": 0.5},
)


def scale_schema() -> TableSchema:
    return TableSchema(
        "Listings",
        (
            Attribute("city", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("type", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("condition", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("price", DataType.INT, AttributeKind.NUMERIC),
            Attribute("sqft", DataType.INT, AttributeKind.NUMERIC),
            Attribute("rating", DataType.FLOAT, AttributeKind.NUMERIC),
        ),
    )


def generate_columns(rows: int, seed: int = 11) -> dict[str, list]:
    """Synthesize the relation column-wise — the only way 500k rows is
    cheap enough to build twice inside a bench."""
    rng = random.Random(seed)
    choices = rng.choices
    uniform = rng.uniform
    return {
        "city": choices(CITIES, weights=range(1, len(CITIES) + 1), k=rows),
        "type": choices(TYPES, weights=(6, 4, 3, 3, 1, 1), k=rows),
        "condition": choices(CONDITIONS, weights=(2, 5, 3, 1), k=rows),
        "price": [int(uniform(50_000, 950_000)) for _ in range(rows)],
        "sqft": [int(uniform(400, 5_400)) for _ in range(rows)],
        "rating": [round(uniform(1.0, 5.0), 1) for _ in range(rows)],
    }


def scale_tables() -> dict[str, Table]:
    """The row oracle (``"rows"``, filled through schema coercion) and the
    column store (``"columnar"``), from the same generated columns."""
    schema = scale_schema()
    columns = generate_columns(SCALE_ROWS)
    return {
        "rows": ReferenceTable.from_columns(schema, columns),
        "columnar": Table.from_columns(schema, columns, coerce=False),
    }


def scale_workload(queries: int = SCALE_QUERIES, seed: int = 13) -> Workload:
    """A small synthetic search log so the categorizer retains city /
    price / rating (usage above the x = 0.4 elimination threshold)."""
    rng = random.Random(seed)
    statements = []
    for _ in range(queries):
        parts = []
        if rng.random() < 0.85:
            picked = rng.sample(CITIES, rng.choice((1, 2, 3)))
            rendered = ", ".join(f"'{c}'" for c in picked)
            parts.append(f"city IN ({rendered})")
        if rng.random() < 0.70:
            low = rng.randrange(50_000, 700_000, 25_000)
            parts.append(f"price BETWEEN {low} AND {low + 250_000}")
        if rng.random() < 0.55:
            parts.append(f"rating >= {rng.choice((2.0, 3.0, 3.5, 4.0))}")
        if rng.random() < 0.25:
            parts.append(f"type IN ('{rng.choice(TYPES)}')")
        if rng.random() < 0.15:
            parts.append(f"sqft >= {rng.choice((1000, 1500, 2000))}")
        if not parts:
            parts.append("rating >= 3.0")
        statements.append("SELECT * FROM Listings WHERE " + " AND ".join(parts))
    return Workload.from_sql_strings(statements)


def scale_query() -> SelectQuery:
    """Three conjuncts keeping ~30% of the table: a broad search."""
    return SelectQuery(
        "Listings",
        Conjunction(
            (
                InPredicate("city", CITIES[8:]),  # the 16 popular cities
                RangePredicate("price", 100_000, 500_000),
                RangePredicate("rating", 2.0, 5.0),
            )
        ),
    )


def narrow_query() -> SelectQuery:
    """:func:`scale_query` narrowed to one city, ~7% of the table."""
    return SelectQuery(
        "Listings",
        Conjunction(
            (
                InPredicate("city", [CITIES[20]]),
                RangePredicate("price", 100_000, 500_000),
                RangePredicate("rating", 2.0, 5.0),
            )
        ),
    )


#: One category level over the query result: the paper's price buckets.
PRICE_BOUNDARIES = [100_000 + 25_000 * step for step in range(17)]


def _timed(fn, repeats=3):
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return sorted(samples)[repeats // 2]


def test_columnar_scale_storage_speedup():
    """Selection + level-build must be >= 3x faster on packed columns
    than on the row oracle."""
    tables = scale_tables()
    query = scale_query()

    def storage_loop(table):
        rows = query.execute(table)
        by_city = rows.partition_by_attribute("city", lambda value: value)
        by_price = rows.partition_by_buckets("price", PRICE_BOUNDARIES)
        return rows, by_city, by_price

    # Equivalence before speed.
    row_rows, row_city, row_price = storage_loop(tables["rows"])
    col_rows, col_city, col_price = storage_loop(tables["columnar"])
    assert row_rows.indices == col_rows.indices
    selectivity = len(row_rows) / SCALE_ROWS
    assert 0.10 <= selectivity <= 0.45, (
        f"bench query drifted to {selectivity:.0%} selectivity"
    )
    assert set(row_city) == set(col_city)
    for key in row_city:
        assert row_city[key].indices == col_city[key].indices
    assert set(row_price) == set(col_price)
    for key in row_price:
        assert row_price[key].indices == col_price[key].indices
    narrow = narrow_query()
    assert (
        narrow.execute(tables["rows"]).indices
        == narrow.execute(tables["columnar"]).indices
    )

    timings = {
        layout: _timed(lambda table=table: storage_loop(table))
        for layout, table in tables.items()
    }
    speedup = timings["rows"] / timings["columnar"]

    print()
    print(
        format_table(
            ["storage", "median seconds", "table rows", "result rows"],
            [
                [name, f"{seconds:.4f}", SCALE_ROWS, len(row_rows)]
                for name, seconds in timings.items()
            ],
            title="Storage loop at paper scale (execute + one level build)",
        )
    )
    print(
        f"speedup: {speedup:.2f}x (required >= {REQUIRED_STORAGE_SPEEDUP}x)"
    )
    _append_bench_record(
        "columnar_scale",
        {
            "table_rows": SCALE_ROWS,
            "result_rows": len(row_rows),
            "row_ms": round(timings["rows"] * 1e3, 3),
            "columnar_ms": round(timings["columnar"] * 1e3, 3),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= REQUIRED_STORAGE_SPEEDUP


def test_columnar_scale_serve_equivalence():
    """The full serve loop: identical trees, columnar >= 1.5x faster."""
    tables = scale_tables()
    schema = scale_schema()
    statistics = preprocess_workload(
        scale_workload(), schema, SCALE_CONFIG.separation_intervals
    )
    query = scale_query()

    def serve(table):
        rows = query.execute(table)
        tree = CostBasedCategorizer(statistics, SCALE_CONFIG).categorize(
            rows, query
        )
        return rows, tree

    row_rows, row_tree = serve(tables["rows"])
    col_rows, col_tree = serve(tables["columnar"])
    assert row_rows.indices == col_rows.indices
    assert _tree_shape(row_tree.root) == _tree_shape(col_tree.root)

    # Warm timing: the first serves above populated the statistics memos;
    # each timed iteration re-executes the selection and rebuilds the
    # tree on fresh RowSets, the steady-state serving pattern.
    timings = {
        layout: _timed(lambda table=table: serve(table))
        for layout, table in tables.items()
    }
    speedup = timings["rows"] / timings["columnar"]

    print()
    print(
        format_table(
            ["storage", "median seconds", "tree categories"],
            [
                [name, f"{seconds:.4f}", row_tree.category_count()]
                for name, seconds in timings.items()
            ],
            title="Serve loop at paper scale (execute + full categorize)",
        )
    )
    print(f"end-to-end speedup: {speedup:.2f}x")
    _append_bench_record(
        "columnar_scale_serve",
        {
            "table_rows": SCALE_ROWS,
            "result_rows": len(row_rows),
            "workload_queries": SCALE_QUERIES,
            "row_ms": round(timings["rows"] * 1e3, 3),
            "columnar_ms": round(timings["columnar"] * 1e3, 3),
            "speedup": round(speedup, 2),
        },
    )
    # Tree construction and cost estimation are storage-neutral, so the
    # end-to-end gain is bounded by their share; the floor here is only
    # "the column store must clearly pay for itself".
    assert speedup >= 1.5


def test_columnar_scale_postings_memory():
    """One attribute's posting lists at 500k rows peak at <= 2x what they
    keep.

    The build takes the whole-table value counts, lays one packed
    positions array out from them and fills it in one pass, so it holds
    little beyond the array it keeps; per-value lists of ints held ~10x.
    Traced from a fresh table, so the value counts are built too.
    """
    table = Table.from_columns(
        scale_schema(), generate_columns(SCALE_ROWS), coerce=False
    )
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = table.groupby_index("city")
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept -= before
    peak -= before
    assert sum(map(len, index.values())) == SCALE_ROWS

    print()
    print(
        format_table(
            ["attribute", "values", "build peak KiB", "kept KiB"],
            [["city", len(index), f"{peak / 1024:.1f}", f"{kept / 1024:.1f}"]],
            title=f"Posting-list build at {SCALE_ROWS} rows",
        )
    )
    assert peak <= 2 * kept
