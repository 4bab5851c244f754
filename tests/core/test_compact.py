"""Compaction keeps a category tree's answers and drops its build state.

:meth:`CategoryTree.compact` (the serving result cache applies it to every
tree it stores) packs each node's row positions into an ``array`` and
drops the memos the categorizer left on the node's row set.  On the
random relations, workloads, configs and queries of
``test_candidate_sizes.py``, in the column store and in the row oracle,
for the cost-based, Attr-Cost and No-Cost techniques:

* the rendering, ``validate()``, every node's positions and ``len(rows)``
  are the same before and after compaction;
* after it, no node holds a memo or a materialized ``indices`` tuple, and
  every position sequence other than a ``range`` is an array of the
  table's :func:`~repro.relational.backends.index_typecode`;
* categorizing the compacted root again builds the same tree.

``tests/serving/test_service.py::TestResultCache::
test_hit_answers_as_an_uncompacted_tree`` checks the same at service
level: a cache hit's ``as_dict()`` and rendering equal those of a tree
that was never compacted.

Seeded mutations these tests caught when they landed (each applied alone
to a copy of the source, then ``pytest tests/core/test_compact.py
tests/serving/test_service.py``):

1. ``RowSet.compact`` keeping the ``derive`` memos.
2. ``RowSet.compact`` keeping the materialized ``indices`` tuple.
3. ``RowSet.compact`` leaving list positions unpacked.
4. ``RowSet.compact`` packing the positions sorted.
5. ``RowSet.compact`` dropping the last position.
6. ``RowSet.compact`` packing with typecode ``'q'`` instead of
   ``index_typecode``.
7. ``RowSet.compact`` marking every view ascending.
8. ``CategoryTree.compact`` compacting only the root.
9. ``CategoryTree.compact`` compacting only the leaves.
10. ``ResultCache.put`` storing the tree without compacting it.
11. A cache hit answering with the first child's rows instead of the
    root's.
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.backends import index_typecode
from repro.render.treeview import render_tree
from repro.workload.log import Workload
from repro.workload.preprocess import preprocess_workload
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

COMPACTED_TECHNIQUES = ("cost-based", "attr-cost", "no-cost")


def answers(tree):
    """What a reader of ``tree`` can see: rendering, positions, sizes."""
    return (
        render_tree(tree),
        [[row.index for row in node.rows] for node in tree.nodes()],
        [len(node.rows) for node in tree.nodes()],
    )


def assert_compacted(tree, table):
    typecode = index_typecode(len(table))
    for node in tree.nodes():
        rows = node.rows
        assert rows._derived is None
        assert rows._indices_tuple is None
        positions = rows._indices
        if not isinstance(positions, range):
            assert isinstance(positions, array)
            assert positions.typecode == typecode


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
def test_compaction_keeps_every_answer(rows, statements, config, query, m, data):
    statistics = preprocess_workload(
        Workload.from_sql_strings(statements), SCHEMA, {"x": 5.0, "n": 5.0}
    )
    config = config.with_overrides(max_tuples_per_category=m, elimination_threshold=0.2)
    # The whole table (a range), any subset in any order (a list that may
    # not ascend), or an ascending subset.
    positions = st.lists(st.integers(0, len(rows) - 1), unique=True)
    picks = st.one_of(st.none(), positions, positions.map(sorted))
    root_picks = data.draw(picks)
    for layout, table_type in LAYOUTS.items():
        table = table_type.from_rows(SCHEMA, rows)
        for technique in COMPACTED_TECHNIQUES:
            tree = TECHNIQUES[technique](statistics, config).categorize(
                view(table, root_picks), query
            )
            before = answers(tree)
            tree.validate()
            tree.compact()
            assert_compacted(tree, table)
            assert answers(tree) == before, (layout, technique)
            tree.validate()
            again = TECHNIQUES[technique](statistics, config).categorize(
                tree.root.rows, query
            )
            assert answers(again) == before, (layout, technique)
