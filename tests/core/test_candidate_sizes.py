"""Differential tests: candidate sizes from counts against materialized rows.

The engine scores a level's candidate attributes from each partitioner's
``sizes(rows)`` and calls ``partition(rows)`` only for the attribute it
chose.  Two oracles keep that honest:

* for each of the four partitioners (cost-based categorical and numeric,
  No-Cost categorical, equi-width), ``sizes`` must equal the labels and
  lengths of ``partition`` on small random relations, in the column store
  and in the row oracle (``tests/relational/reference_rowstore.py``),
  with NULL, NaN and ±inf values, values outside the query's range,
  IN-lists naming absent values, and the missing-value category on or
  off;
* :func:`tests.core.reference_categorizer.reference_categorize`, the level
  loop that partitioned every candidate, must render byte-identical trees
  and record identical decision traces for the cost-based, No-Cost and
  Attr-Cost techniques (and a fixed attribute order).

Seeded mutations this file caught when it landed (each applied alone to
a copy of the source, then ``pytest tests/core/test_candidate_sizes.py``):

1. ``Histogram.at_most`` bisecting left instead of right.
2. ``Histogram.of`` keeping ±inf (caught as a hang: an infinite vmax
   never ends the equi-width loop).
3. ``Histogram.of`` keeping NaN.
4. ``Histogram.bucket_counts`` closing the last bucket like the others.
5. ``Histogram.bucket_counts`` keeping empty buckets.
6. ``NumericPartitioner._count_sizes`` omitting the missing-value category.
7. ``CategoricalPartitioner._categories`` appending "unknown" without
   checking its group.
8. The categorical sizes memo key without the missing-value policy.
9. ``single_value_categories`` keeping values whose group is empty.
10. ``universe_of`` keeping NULL.
11. ``node_value_counts`` memoized under one key for every attribute.
12. ``_attach_level`` attaching nodes whose sizes name one category.
13. ``_LevelCandidates`` serving one attribute's sizes for every attribute.
14. ``ColumnStore.count_values`` decoding the NULL code as a value.
15. ``_level_cost`` counting categories instead of tuples.
16. The numeric memo key without the SplitPoints table's version.
17. ``EquiWidthNumericPartitioner.sizes`` without its ``vmin >= vmax``
    guard.

A mutation of splitpoint selection itself (the rightmost bucket open at
vmax in ``_is_necessary``) moves sizes and partitions alike, so it
survives here; ``test_partition_numeric.py``'s
``test_rightmost_bucket_counts_values_at_vmax`` catches it.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import CostBasedCategorizer
from repro.core.baselines import (
    ArbitraryOrderCategoricalPartitioner,
    AttrCostCategorizer,
    EquiWidthNumericPartitioner,
    NoCostCategorizer,
)
from repro.core.config import PAPER_CONFIG
from repro.core.enumerate import FixedOrderCategorizer
from repro.core.partition import CategoricalPartitioner, NumericPartitioner
from repro.data.homes import ListPropertyGenerator
from repro.relational.expressions import Conjunction, InPredicate, RangePredicate
from repro.relational.query import SelectQuery
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import RowSet, Table
from repro.relational.types import AttributeKind, DataType
from repro.render.treeview import render_tree
from repro.workload.log import Workload
from repro.workload.preprocess import preprocess_workload
from tests.core.reference_categorizer import reference_categorize
from tests.relational.reference_rowstore import LAYOUTS, ReferenceTable

SCHEMA = TableSchema(
    "T",
    (
        Attribute("cat", DataType.TEXT),
        Attribute("code", DataType.INT, AttributeKind.CATEGORICAL),
        Attribute("x", DataType.FLOAT),
        Attribute("n", DataType.INT),
    ),
)
CATEGORICAL = ("cat", "code")
NUMERIC = ("x", "n")

relations = st.lists(
    st.fixed_dictionaries(
        {
            "cat": st.sampled_from(["a", "b", "c", "d", None]),
            "code": st.sampled_from([1, 2, 3, 4, None]),
            "x": st.one_of(
                st.integers(-20, 60).map(float),
                st.sampled_from([None, math.nan, math.inf, -math.inf]),
            ),
            "n": st.one_of(st.integers(-20, 60), st.none()),
        }
    ),
    max_size=40,
)


@st.composite
def workloads(draw):
    statements = []
    for _ in range(draw(st.integers(1, 12))):
        conditions = []
        for attribute in NUMERIC:
            if draw(st.booleans()):
                low, high = sorted(
                    draw(st.lists(st.integers(0, 70), min_size=2, max_size=2))
                )
                conditions.append(f"{attribute} BETWEEN {low} AND {high}")
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3))
            conditions.append("cat IN (" + ", ".join(f"'{v}'" for v in values) + ")")
        if draw(st.booleans()) or not conditions:
            values = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
            conditions.append("code IN (" + ", ".join(map(str, values)) + ")")
        statements.append("SELECT * FROM T WHERE " + " AND ".join(conditions))
    return statements


@st.composite
def queries(draw):
    """A user query; its conditions need not match the rows partitioned."""
    parts = []
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from("abzy"), min_size=1))
        parts.append(InPredicate("cat", values))
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from([1, 2, 9]), min_size=1))
        parts.append(InPredicate("code", values))
    for attribute in NUMERIC:
        if draw(st.booleans()):
            low = draw(st.sampled_from([-math.inf, -100, -5, 0, 10, 30]))
            high = draw(st.sampled_from([math.inf, 200, 50, 25, 5]))
            if low <= high:
                parts.append(RangePredicate(attribute, low, high))
    if not parts:
        return draw(st.sampled_from([None, SelectQuery("T")]))
    return SelectQuery("T", Conjunction(parts))


configs = st.builds(
    lambda missing, minimum, buckets, auto, interval: PAPER_CONFIG.with_overrides(
        include_missing_category=missing,
        min_bucket_tuples=minimum,
        bucket_count=buckets,
        auto_bucket_count=auto,
        separation_intervals={"x": interval, "n": interval},
    ),
    st.booleans(),
    st.integers(1, 4),
    st.integers(2, 5),
    st.booleans(),
    st.sampled_from([1.0, 5.0, 10.0]),
)


def view(table, picks):
    """``picks`` as a RowSet; ``None`` means the whole table."""
    return table.all_rows() if picks is None else RowSet(table, picks)


def partitioners(statistics, config, query, root, memos):
    """Every partitioner; the cached ones file their counts in ``memos``
    (view → node memo), the others memoize nothing."""
    for cached, missing in [(True, False), (True, True), (False, False), (False, True)]:
        node_memos = memos if cached else None
        for attribute in CATEGORICAL:
            yield CategoricalPartitioner(
                attribute,
                statistics,
                query=query,
                include_missing=missing,
                memos=node_memos,
            )
        for attribute in NUMERIC:
            yield NumericPartitioner(
                attribute,
                statistics,
                config.with_overrides(include_missing_category=missing),
                query=query,
                root_rows=root,
                memos=node_memos,
            )
    for attribute in CATEGORICAL:
        yield ArbitraryOrderCategoricalPartitioner(attribute, query=query, memos=memos)
    for attribute in NUMERIC:
        yield EquiWidthNumericPartitioner(
            attribute, config, query=query, root_rows=root, memos=memos
        )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sizes_equal_partition_lengths(data):
    rows = data.draw(relations)
    statistics = preprocess_workload(
        Workload.from_sql_strings(data.draw(workloads())),
        SCHEMA,
        {"x": 5.0, "n": 5.0},
    )
    config = data.draw(configs)
    query = data.draw(queries())
    positions = st.lists(st.integers(0, max(len(rows) - 1, 0)), unique=True)
    # Most of the table, ascending: the categorical index path's posting
    # lists then cover values the node holds none of.
    most = positions.map(lambda dropped: sorted(set(range(len(rows))) - set(dropped)))
    picks = st.one_of(st.none(), positions, most) if rows else st.none()
    root_picks = data.draw(picks)
    node_picks = data.draw(picks)
    by_layout = []
    for layout in LAYOUTS.values():
        table = layout.from_rows(SCHEMA, rows)
        node = view(table, node_picks)
        sized = []
        root = view(table, root_picks)
        memos = {root: {}, node: {}}
        for partitioner in partitioners(statistics, config, query, root, memos):
            sizes = partitioner.sizes(node)
            assert sizes == [
                (label, len(part)) for label, part in partitioner.partition(node)
            ], type(partitioner).__name__
            assert partitioner.sizes(node) == sizes  # memo hit, same answer
            sized.append(sizes)
        by_layout.append(sized)
    assert by_layout[0] == by_layout[1]


def test_sizes_memo_follows_workload_updates():
    """A statistics update that reorders values or moves splitpoints
    changes the memo key, so sizes never go stale against partition."""
    from repro.workload.model import WorkloadQuery

    rows = [
        {"cat": "abcd"[i % 4], "code": i % 3, "x": float(i), "n": i}
        for i in range(40)
    ]
    statistics = preprocess_workload(
        Workload.from_sql_strings(
            ["SELECT * FROM T WHERE x BETWEEN 10 AND 20 AND cat IN ('a')"]
        ),
        SCHEMA,
        {"x": 5.0, "n": 5.0},
    )
    node = Table.from_rows(SCHEMA, rows).all_rows()
    memos = {node: {}}  # kept across the update, as a BuildMemo keeps it
    before = [
        p.sizes(node) for p in partitioners(statistics, PAPER_CONFIG, None, node, memos)
    ]
    for _ in range(3):
        statistics.record_query(
            WorkloadQuery.from_sql(
                "SELECT * FROM T WHERE x BETWEEN 25 AND 35 AND cat IN ('d')"
            )
        )
    after = []
    for partitioner in partitioners(statistics, PAPER_CONFIG, None, node, memos):
        sizes = partitioner.sizes(node)
        assert sizes == [
            (label, len(part)) for label, part in partitioner.partition(node)
        ]
        after.append(sizes)
    assert after != before


TECHNIQUES = {
    "cost-based": lambda stats, config: CostBasedCategorizer(stats, config),
    "no-cost": lambda stats, config: NoCostCategorizer(
        stats, config, attribute_set=SCHEMA.names(), order_seed=5
    ),
    "attr-cost": lambda stats, config: AttrCostCategorizer(
        stats, config, attribute_set=SCHEMA.names(), order_seed=5
    ),
    "fixed-order": lambda stats, config: FixedOrderCategorizer(
        stats, ("n", "cat", "x", "code"), config
    ),
}


def assert_same_as_reference(make, rows_new, rows_ref, query):
    tree = make().categorize(rows_new, query, collect_trace=True)
    reference = reference_categorize(make(), rows_ref, query, collect_trace=True)
    assert render_tree(tree) == render_tree(reference)
    assert tree.decision_trace == reference.decision_trace


@settings(max_examples=60, deadline=None)
@given(
    relations,
    workloads(),
    configs,
    queries(),
    st.integers(2, 6),
    st.sampled_from(sorted(TECHNIQUES)),
)
def test_engine_matches_reference_on_random_relations(
    rows, statements, config, query, m, technique
):
    statistics = preprocess_workload(
        Workload.from_sql_strings(statements), SCHEMA, {"x": 5.0, "n": 5.0}
    )
    config = config.with_overrides(max_tuples_per_category=m, elimination_threshold=0.2)
    for layout in LAYOUTS.values():
        # Two tables, so neither engine sees the other's memoized counts.
        result_new = layout.from_rows(SCHEMA, rows).all_rows()
        result_ref = layout.from_rows(SCHEMA, rows).all_rows()
        assert_same_as_reference(
            lambda: TECHNIQUES[technique](statistics, config),
            result_new,
            result_ref,
            query,
        )


def test_engine_matches_reference_on_homes(homes_table, statistics, seattle_query):
    # The conftest table's own generator rows, never its column store.
    rows_table = ReferenceTable.from_rows(
        homes_table.schema, ListPropertyGenerator(rows=4_000, seed=7).listings()
    )
    assert rows_table.to_dicts() == homes_table.to_dicts()
    price_query = SelectQuery(
        "ListProperty", RangePredicate("price", 200_000, 600_000)
    )
    homes_techniques = {
        "cost-based": lambda: CostBasedCategorizer(statistics, PAPER_CONFIG),
        "no-cost": lambda: NoCostCategorizer(statistics, PAPER_CONFIG, order_seed=3),
        "attr-cost": lambda: AttrCostCategorizer(
            statistics, PAPER_CONFIG, order_seed=3
        ),
    }
    for table in (homes_table, rows_table):
        for query in (seattle_query, price_query):
            for make in homes_techniques.values():
                assert_same_as_reference(
                    make, query.execute(table), query.execute(table), query
                )
