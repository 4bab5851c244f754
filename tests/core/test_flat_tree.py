"""Differential tests: flat category trees against the nested oracle.

The categorizer builds every tree over one
:class:`~repro.relational.table.Permutation` of the result's positions,
each node a :class:`~repro.relational.table.RowSlice` of it, and files
what it derives per node in level-scoped memos (:mod:`repro.core.memo`).
:func:`tests.core.reference_categorizer.reference_categorize`, which
attaches the partitioners' own row sets level by level and never touches
a permutation or a memo, is the oracle.  On the random relations,
workloads, configs and queries of ``test_candidate_sizes.py``, in the
column store and in the row oracle, for the cost-based, Attr-Cost and
No-Cost techniques:

* the rendering, ``validate()`` and the decision trace equal the
  oracle's;
* every node's positions equal the oracle's, in the same order, and read
  ascending when the result does;
* the nodes are slices of one permutation of the table's
  :func:`~repro.relational.backends.index_typecode`: children contiguous
  in label order from their parent's start, the rows they drop after
  the last one;
* ONE-, FEW- and ALL-scenario replays of the workload's queries give
  the oracle's outcomes;
* a build counts each node on each attribute at most once;
* categorizing again with a :class:`~repro.core.memo.BuildMemo` handle,
  or a tree's own root, builds the same tree, and one handle shared by a
  sweep over M and techniques gives each tree the oracle's answers.

``tests/serving/test_service.py::TestResultCache::
test_hit_answers_as_an_uncompacted_tree`` checks at service level that a
cached tree holds no memo and no list of positions.

Seeded mutations these tests caught (each applied alone to a copy of the
source, then ``pytest tests/core/test_flat_tree.py
tests/serving/test_service.py``):

1. ``RowSlice.split`` dropping the last position of each part.
2. ``Permutation`` packing with typecode ``'q'`` instead of
   ``index_typecode``.
3. ``RowSlice.is_ascending`` answering True for every slice.
4. A cache hit answering with the first child's rows instead of the
   root's.
5. An internal node read in permuted order (``RowSlice.positions`` not
   merging a split slice back).
6. Dropped rows placed inside a child (the tail written from the last
   part's start).
7. An unstable reorder (``RowSlice.split`` writing each part reversed).
8. A level's memo read after its release (``_release_level`` run before
   ``_attach_level``).
9. A slice-keyed memo shared across an M sweep (``_attach_level``
   filing each child's memo under its slice bounds, in one map the
   handle keeps, instead of under its parent's partitioning).
10. A node's partitioning reused for sizes it was not built for
    (``_attach_level`` matching the attribute alone).
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import CostBasedCategorizer
from repro.core.memo import BuildMemo
from repro.explore.exploration import replay_all, replay_few, replay_one
from repro.relational.backends import index_typecode
from repro.relational.table import RowSet, RowSlice
from repro.render.treeview import render_tree
from repro.workload.log import Workload
from repro.workload.model import WorkloadQuery
from repro.workload.preprocess import preprocess_workload
from tests.core.reference_categorizer import reference_categorize
from tests.core.test_candidate_sizes import (
    SCHEMA,
    TECHNIQUES,
    configs,
    queries,
    relations,
    view,
    workloads,
)
from tests.relational.reference_rowstore import LAYOUTS

FLAT_TECHNIQUES = ("cost-based", "attr-cost", "no-cost")


def answers(tree):
    """What a reader of ``tree`` can see: rendering, positions in order,
    and the decision trace."""
    return (
        render_tree(tree),
        [node.rows.indices for node in tree.nodes()],
        tree.decision_trace,
    )


def replays(tree, explorations):
    return [
        (replay_one(tree, w), replay_few(tree, w, 2), replay_all(tree, w))
        for w in explorations
    ]


def assert_flat(tree, table):
    """One permutation; children contiguous from the parent's start, in
    label order, and the rows they drop after the last one."""
    permutation = tree.root.rows._permutation
    assert permutation.positions.typecode == index_typecode(len(table))
    assert (tree.root.rows._start, tree.root.rows._stop) == (
        0,
        len(permutation.positions),
    )
    for node in tree.nodes():
        rows = node.rows
        assert type(rows) is RowSlice and rows._permutation is permutation
        if node.is_leaf:
            continue
        edge = rows._start
        for child in node.children:
            assert child.rows._start == edge
            edge = child.rows._stop
        dropped = len(rows) - sum(child.tuple_count for child in node.children)
        assert edge + dropped == rows._stop


def counted_once(build):
    """Run ``build()``; assert it counted no row set on one attribute
    twice (a memo released before its last read counts again)."""
    seen = []
    count_values = RowSet.count_values

    def logged(rows, attribute):
        seen.append((attribute, frozenset(rows.positions())))
        return count_values(rows, attribute)

    with mock.patch.object(RowSet, "count_values", logged):
        result = build()
    assert len(seen) == len(set(seen)), "a node was counted twice"
    return result


# Relations of a few rows mostly give one-node trees; past eight rows
# about three examples in four grow at least one level.
@settings(max_examples=100, deadline=None)
@given(
    relations.filter(lambda rows: len(rows) > 8),
    workloads(),
    configs,
    queries(),
    st.integers(2, 4),
    st.data(),
)
def test_flat_tree_matches_nested_oracle(rows, statements, config, query, m, data):
    statistics = preprocess_workload(
        Workload.from_sql_strings(statements), SCHEMA, {"x": 5.0, "n": 5.0}
    )
    config = config.with_overrides(max_tuples_per_category=m, elimination_threshold=0.2)
    explorations = [WorkloadQuery.from_sql(sql) for sql in statements]
    # The whole table (a range), any subset in any order (a list that may
    # not ascend), or an ascending subset.
    positions = st.lists(st.integers(0, len(rows) - 1), unique=True)
    picks = st.one_of(st.none(), positions, positions.map(sorted))
    root_picks = data.draw(picks)
    ascending = root_picks is None or root_picks == sorted(root_picks)
    for layout, table_type in LAYOUTS.items():
        table = table_type.from_rows(SCHEMA, rows)
        for technique in FLAT_TECHNIQUES:
            def make(m=m):
                return TECHNIQUES[technique](
                    statistics, config.with_overrides(max_tuples_per_category=m)
                )

            tree = counted_once(
                lambda: make().categorize(
                    view(table, root_picks), query, collect_trace=True
                )
            )
            reference = reference_categorize(
                make(), view(table, root_picks), query, collect_trace=True
            )
            tree.validate()
            reference.validate()
            expected = answers(reference)
            assert answers(tree) == expected, (layout, technique)
            assert_flat(tree, table)
            if ascending:
                for node in tree.nodes():
                    assert list(node.rows.indices) == sorted(node.rows.indices)
            assert replays(tree, explorations) == replays(reference, explorations)

            again = make().categorize(tree.root.rows, query, collect_trace=True)
            assert answers(again) == expected, (layout, technique)
            root = view(table, root_picks)
            memo = BuildMemo()
            for _ in range(2):
                kept = make().categorize(root, query, collect_trace=True, memo=memo)
                assert answers(kept) == expected, (layout, technique)
                assert_flat(kept, table)

        # One handle across an M sweep and every technique: a label path
        # names the same rows in each of their trees, a slice does not.
        root = view(table, root_picks)
        sweep = BuildMemo()
        for sweep_m in (m + 2, m, m + 1):
            for technique in (*FLAT_TECHNIQUES, "cost-based"):
                swept_config = config.with_overrides(max_tuples_per_category=sweep_m)
                swept = TECHNIQUES[technique](statistics, swept_config).categorize(
                    root, query, collect_trace=True, memo=sweep
                )
                oracle = reference_categorize(
                    TECHNIQUES[technique](statistics, swept_config),
                    view(table, root_picks),
                    query,
                    collect_trace=True,
                )
                assert answers(swept) == answers(oracle), (layout, technique, sweep_m)


def test_build_memo_serves_one_result_set(homes_table, statistics, seattle_query):
    """A handle is tied to the result set it first memoized; the trees it
    serves equal fresh builds."""
    rows = seattle_query.execute(homes_table)
    categorizer = CostBasedCategorizer(statistics)
    memo = BuildMemo()
    fresh = categorizer.categorize(rows, seattle_query)
    kept = categorizer.categorize(rows, seattle_query, memo=memo)
    assert memo.root  # the root's counts, sizes and partitionings
    assert answers(kept) == answers(fresh)
    assert answers(categorizer.categorize(rows, seattle_query, memo=memo)) == answers(
        fresh
    )
    with pytest.raises(ValueError, match="one result set"):
        categorizer.categorize(seattle_query.execute(homes_table), memo=memo)
