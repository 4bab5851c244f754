"""Single-value partitioning for categorical attributes (Section 5.1.2).

"We only consider single-value partitionings ... one category Ci
corresponding to each value vi ... the only factor that impacts the cost of
a single-valued partitioning is the order in which the categories are
presented."  The cost-optimal ONE-scenario order is increasing
``1/P(Ci) + CostOne(Ci)`` (Appendix A); the paper adopts the
``P(Ci)``-descending heuristic, which for single-value categories is
occurrence-count-descending: "we simply sort the values in the IN clause in
the decreasing order of occ(vi)".

The value inventory comes from the user query's IN clause when present
(those are the values R can contain), otherwise from the data itself.

Figure 6 chooses a level's attribute from each candidate category's label
and size alone, so :meth:`CategoricalPartitioner.sizes` answers from one
count per value: :meth:`~repro.relational.table.RowSet.count_values` over
the node (integer codes on dictionary columns), filed in the node's memo
(:mod:`repro.core.memo`).  The same count is the value inventory when the
query fixes none.

:meth:`CategoricalPartitioner.partition` builds the categories' row sets,
for the attribute a level chose.  Two bucketing strategies produce
identical partitionings:

* the **scan path** walks the node's column values once (O(|node|) calls
  into a per-row classifier), and
* the **index path** intersects the table's cached value→row-indices
  groupby index (:meth:`repro.relational.table.Table.groupby_index`) with
  the node's index set — C-speed comprehensions instead of per-row Python
  calls.  The index is built once per (table, attribute) and reused across
  levels, nodes and repeated ``categorize`` calls; a whole-table node
  adopts each value's posting list, a slice of the attribute's one packed
  positions array, without copying it.

The index path wins when the node covers a sizable share of the rows whose
values it partitions on (always true at the root level); for small deep
nodes the posting lists dwarf the node and the scan path is chosen
instead.  :meth:`CategoricalPartitioner.partition` picks per node, from
the table's whole-table value counts
(:meth:`repro.relational.table.Table.tally`), so a node that scans builds
no posting list.

Both ``sizes`` and ``partition`` label their categories through
:func:`single_value_categories`, so they differ only in how they count.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence, TypeVar

from repro import perf
from repro.core.labels import CategoricalLabel, CategoryLabel, MissingLabel
from repro.core.memo import NodeMemo, NodeMemos, memo_of, memoized
from repro.relational.query import SelectQuery
from repro.relational.table import RowSet
from repro.workload.preprocess import WorkloadStatistics

#: The index path iterates candidate posting lists instead of node rows;
#: per element it is several times cheaper than the scan path's classifier
#: call, so it is chosen while posting-list volume <= this factor × |node|.
INDEX_PATH_ADVANTAGE = 4

_Group = TypeVar("_Group")


def universe_of(values: Iterable[Any]) -> list[Any]:
    """The values that name a single-value category, sorted by repr.

    NULL and NaN equal no value, so neither names a category.
    """
    return sorted(
        (value for value in values if value is not None and value == value),
        key=repr,
    )


def query_universe(query: SelectQuery | None, attribute: str) -> list[Any] | None:
    """The universe the query's IN clause on ``attribute`` fixes, if any."""
    values = None if query is None else query.values_on(attribute)
    return None if values is None else universe_of(values)


def node_value_counts(
    rows: RowSet, attribute: str, memo: NodeMemo | None = None
) -> Mapping[Any, int]:
    """``rows.count_values(attribute)``, filed in the node's ``memo``."""
    return memoized(
        memo, ("value_counts", attribute), lambda: rows.count_values(attribute)
    )


def single_value_categories(
    attribute: str, ordered: Sequence[Any], groups: Mapping[Any, _Group]
) -> list[tuple[CategoryLabel, _Group]]:
    """One ``A ∈ {v}`` category per value of ``ordered`` with a non-empty
    group, in that order; a group is a row set or a count."""
    return [
        (CategoricalLabel(attribute, (value,)), groups[value])
        for value in ordered
        if groups.get(value)
    ]


class CategoricalPartitioner:
    """Partitions nodes on one categorical attribute, occ-ordered.

    Per Figure 6 the ordered single-category list (SCL) is computed once
    per level; each node is then partitioned into the non-empty categories
    in that same order.  Instantiate once per (level, attribute).
    """

    def __init__(
        self,
        attribute: str,
        statistics: WorkloadStatistics,
        query: SelectQuery | None = None,
        universe: Sequence[Any] | None = None,
        include_missing: bool = False,
        memos: NodeMemos | None = None,
    ) -> None:
        """Args:
            attribute: the categorizing attribute A.
            statistics: workload count tables (for occ(v)).
            query: the user query; its IN clause on A, if any, fixes the
                value universe.
            universe: explicit value universe overriding both query and
                data (used when the caller has already computed it).
            include_missing: append an "unknown" category for NULL-valued
                tuples (last, after every real value).
            memos: the build's node memos; value counts and sizes of the
                row sets it maps are filed there.  None memoizes nothing.
        """
        self.attribute = attribute
        self.statistics = statistics
        self.include_missing = include_missing
        self._memos = memos
        self._universe = (
            universe_of(universe)
            if universe is not None
            else query_universe(query, attribute)
        )

    def ordered_values(self, rows: RowSet) -> list[Any]:
        """The SCL value order: the universe sorted by decreasing occ(v).

        When no universe was fixed by the query, the distinct values of the
        attribute in ``rows`` serve as the universe.
        """
        universe = (
            self._universe
            if self._universe is not None
            else universe_of(self._value_counts(rows))
        )
        occurrence = self.statistics.occurrence_counts(self.attribute)
        return occurrence.order_by_occurrence(universe)

    def partition(self, rows: RowSet) -> list[tuple[CategoryLabel, RowSet]]:
        """Partition ``rows`` into ordered non-empty single-value categories.

        Tuples whose value is NULL or outside the universe fall under no
        category (they match no label), mirroring Section 3.1's definition
        of tset via label predicates.  Both execution paths (see module
        docstring) return identical partitionings.
        """
        perf.count("partition.categorical.calls")
        with perf.span("partition.categorical"):
            ordered = self.ordered_values(rows)
            if self._index_path_profitable(rows, ordered):
                perf.count("partition.categorical.index_path")
                return self._partition_via_index(rows, ordered)
            perf.count("partition.categorical.scan_path")
            return self._partition_via_scan(rows, ordered)

    def sizes(self, rows: RowSet) -> list[tuple[CategoryLabel, int]]:
        """``[(label, len(rows)) for label, rows in partition(rows)]``,
        from the node's value counts instead of its row sets."""
        ordered = self.ordered_values(rows)
        key = (
            "sizes.categorical",
            self.attribute,
            tuple(ordered),
            self.include_missing,
        )
        return list(
            memoized(
                memo_of(self._memos, rows),
                key,
                lambda: self._categories(ordered, self._value_counts(rows)),
            )
        )

    def _value_counts(self, rows: RowSet) -> Mapping[Any, int]:
        return node_value_counts(rows, self.attribute, memo_of(self._memos, rows))

    def _categories(
        self,
        ordered: Sequence[Any],
        groups: Mapping[Any, _Group],
        missing_key: Any = None,
    ) -> list[tuple[CategoryLabel, _Group]]:
        """Label the non-empty groups in SCL order, "unknown" (the NULLs,
        grouped under ``missing_key``) last."""
        categories = single_value_categories(self.attribute, ordered, groups)
        if self.include_missing and groups.get(missing_key):
            categories.append((MissingLabel(self.attribute), groups[missing_key]))
        return categories

    # -- execution paths ------------------------------------------------------

    def _index_path_profitable(self, rows: RowSet, ordered: list[Any]) -> bool:
        """Decide per node whether the groupby-index path is the cheaper one."""
        if not rows.is_ascending:
            return False  # index path emits table order; keep outputs identical
        if len(rows) == len(rows.table):
            return True  # posting lists ARE the buckets: no filtering at all
        # Sized from the whole-table counts, so a node that scans never
        # builds the posting lists.
        tally = rows.table.tally(self.attribute)
        candidate_volume = sum(tally.get(value, 0) for value in ordered)
        if self.include_missing:
            candidate_volume += tally.get(None, 0)
        return candidate_volume <= INDEX_PATH_ADVANTAGE * len(rows)

    def _partition_via_index(
        self, rows: RowSet, ordered: list[Any]
    ) -> list[tuple[CategoryLabel, RowSet]]:
        index = rows.table.groupby_index(self.attribute)
        table = rows.table
        members = None if len(rows) == len(table) else set(rows.positions())

        def restrict(posting: Sequence[int]) -> RowSet:
            if members is None:
                return RowSet(table, posting)
            return RowSet(table, [i for i in posting if i in members])

        wanted = [*ordered, None] if self.include_missing else ordered
        groups = {value: restrict(index[value]) for value in wanted if value in index}
        return self._categories(ordered, groups)

    def _partition_via_scan(
        self, rows: RowSet, ordered: list[Any]
    ) -> list[tuple[CategoryLabel, RowSet]]:
        allowed = set(ordered)
        missing_key = object()  # sentinel distinct from every real value

        def classify(value):
            if value is None:
                return missing_key if self.include_missing else None
            return value if value in allowed else None

        buckets = rows.partition_by_attribute(self.attribute, classify)
        return self._categories(ordered, buckets, missing_key)

    def exploration_probability(self, value: Any) -> float:
        """``P(Ci) = occ(vi) / NAttr(A)`` for the single-value category of vi."""
        n_attr = self.statistics.n_attr(self.attribute)
        if n_attr == 0:
            return 0.0
        return self.statistics.occ(self.attribute, value) / n_attr
