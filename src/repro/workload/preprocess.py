"""Workload preprocessing: one scan building every count table.

Implements the paper's preprocessing phase (Section 6.1): "we scan the
workload and build the following tables: the AttributeUsageCounts table,
one OccurrenceCounts table for each potential categorizing attribute that
is categorical and one SplitPoints table for each ... numeric [attribute]".

The result, :class:`WorkloadStatistics`, is everything the categorizer
needs at query time — the workload itself is never touched again.  Both
ingestion paths — the batch scan of :func:`preprocess_workload` and the
incremental :meth:`WorkloadStatistics.record_query` — fold conditions
through the single shared :func:`fold_query_conditions` dispatcher, so the
two cannot drift apart.

``usage_fraction`` and ``occ`` read their count tables directly, one
``Counter`` lookup each.  ``n_overlap_range`` bisects the range index, and
the same buckets recur across nodes, levels and repeated ``categorize``
calls, so it is memoized per attribute; :meth:`record_query` drops the
memos of the attributes the new log entry constrains.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro import perf
from repro.relational.expressions import InPredicate, RangePredicate
from repro.relational.schema import TableSchema
from repro.workload.model import WorkloadQuery
from repro.workload.counts import (
    AttributeUsageCounts,
    OccurrenceCounts,
    RangeIndex,
    SplitPointsTable,
)


def fold_query_conditions(
    query: WorkloadQuery,
    usage: AttributeUsageCounts,
    occurrences: Mapping[str, OccurrenceCounts],
    splitpoints: Mapping[str, SplitPointsTable],
    range_indexes: Mapping[str, RangeIndex],
) -> list[str]:
    """Fold one logged query into the count tables — the single dispatcher.

    Used by both the batch scan (:func:`preprocess_workload`) and the
    incremental path (:meth:`WorkloadStatistics.record_query`); keeping one
    copy of the dispatch rules is what guarantees batch ≡ incremental.

    The rules, per condition shape × attribute kind:

    * IN on a categorical attribute → its OccurrenceCounts table.
    * Range on a numeric attribute → its SplitPoints table + range index.
    * IN on a *numeric* attribute (e.g. ``zipcode IN (98004)`` when zipcode
      is numeric in the schema) → each numeric value becomes the degenerate
      point range ``[v, v]``: it increments start/end counts at ``snap(v)``
      and contributes to ``NOverlap`` of every bucket containing ``v``.
    * Range on a categorical attribute → only ``NAttr`` (no value table can
      represent a range over an unordered domain).
    * Conditions on attributes missing from the schema → only ``NAttr``
      (they still evidence user interest).

    Returns:
        The attributes whose *value tables* changed — the memo-invalidation
        set for the incremental path.
    """
    usage.record_query(query.attributes)
    touched: list[str] = []
    for attribute, condition in query.conditions.items():
        if isinstance(condition, InPredicate):
            if attribute in occurrences:
                occurrences[attribute].record_values(condition.values)
                touched.append(attribute)
            elif attribute in splitpoints:
                fed = False
                for value in condition.values:
                    if isinstance(value, bool) or not isinstance(
                        value, (int, float)
                    ):
                        continue  # non-numeric literal in a numeric IN-set
                    point = float(value)
                    splitpoints[attribute].record_range(point, point)
                    range_indexes[attribute].record_range(point, point)
                    fed = True
                if fed:
                    touched.append(attribute)
        elif isinstance(condition, RangePredicate) and attribute in splitpoints:
            splitpoints[attribute].record_range(condition.low, condition.high)
            range_indexes[attribute].record_range(condition.low, condition.high)
            touched.append(attribute)
    return touched


class WorkloadStatistics:
    """All precomputed workload count tables for one schema.

    Build via :func:`preprocess_workload`.  Exposes the quantities of
    Sections 4.2 and 5.1: ``N``, ``NAttr(A)``, ``occ(v)``, splitpoint
    goodness scores, and range-overlap counts (memoized; see the module
    docstring).
    """

    def __init__(
        self,
        schema: TableSchema,
        usage: AttributeUsageCounts,
        occurrences: Mapping[str, OccurrenceCounts],
        splitpoints: Mapping[str, SplitPointsTable],
        range_indexes: Mapping[str, RangeIndex],
    ) -> None:
        self.schema = schema
        self.usage = usage
        self._occurrences = dict(occurrences)
        self._splitpoints = dict(splitpoints)
        self._range_indexes = dict(range_indexes)
        # attribute -> {(low, high, high_inclusive) -> NOverlap};
        # dropped per touched attribute.
        self._range_memo: dict[str, dict[tuple[float, float, bool], int]] = {}

    def _invalidate(self, touched: list[str]) -> None:
        """Invalidate exactly what one new logged query can change."""
        for attribute in touched:
            self._range_memo.pop(attribute, None)
        perf.count("stats.invalidations")

    # -- snapshot support ------------------------------------------------------

    def copy(self) -> "WorkloadStatistics":
        """An independent copy with a warm range memo (copy-on-write basis).

        The epoch-snapshot store (:mod:`repro.serving.snapshot`) publishes
        a new epoch by copying the current statistics and folding the
        pending delta into the copy, leaving the published epoch untouched
        for pinned readers.  Count tables are deep-copied; the range memo
        is copied too, so overlap counts untouched by the delta stay warm
        in the new epoch while :meth:`record_query` invalidation evicts
        exactly the attributes the delta can change.  The schema is shared
        (immutable).
        """
        clone = WorkloadStatistics(
            schema=self.schema,
            usage=self.usage.copy(),
            occurrences={
                name: table.copy() for name, table in self._occurrences.items()
            },
            splitpoints={
                name: table.copy() for name, table in self._splitpoints.items()
            },
            range_indexes={
                name: index.copy() for name, index in self._range_indexes.items()
            },
        )
        # Readers of a pinned epoch add entries to the memo while it is
        # being copied, so it is snapshotted in one C-level call first:
        # iterating a live dict would fail once a reader grew it.
        clone._range_memo = {
            attribute: dict(memo)
            for attribute, memo in list(self._range_memo.items())
        }
        return clone

    def finalize_indexes(self) -> None:
        """Sort every dirty range index now, not lazily on first read.

        A pinned epoch snapshot must be immutable under concurrent reads;
        the range index normally re-sorts lazily inside the first
        ``count_overlapping`` after an append, which would be a mutation
        racing other readers.  Publishing calls this before the epoch is
        swapped in, so readers only ever see finalized indexes.
        """
        for index in self._range_indexes.values():
            if not index.is_finalized:
                index.finalize()

    # -- incremental maintenance ---------------------------------------------

    def record_query(self, query: WorkloadQuery) -> None:
        """Fold one new logged query into every count table.

        Commercial DBMSs "log the queries that execute on the system
        anyway" (Section 4.2) — and they keep arriving.  All count tables
        are additive over queries, so statistics can track a live log
        without periodic full rescans; the numeric range index re-sorts
        lazily on the next overlap count.  Dispatch is shared with the
        batch path via :func:`fold_query_conditions`, and the range memo
        is invalidated so no stale overlap count survives the update.
        """
        touched = fold_query_conditions(
            query,
            self.usage,
            self._occurrences,
            self._splitpoints,
            self._range_indexes,
        )
        self._invalidate(touched)

    # -- workload-size quantities ------------------------------------------

    @property
    def total_queries(self) -> int:
        """``N``: the number of workload queries scanned."""
        return self.usage.total_queries

    def n_attr(self, attribute: str) -> int:
        """``NAttr(A)`` (Figure 4a)."""
        return self.usage.n_attr(attribute)

    def usage_fraction(self, attribute: str) -> float:
        """``NAttr(A)/N``: the probability a random user constrains ``A``."""
        return self.usage.usage_fraction(attribute)

    # -- per-attribute tables -----------------------------------------------

    def occurrence_counts(self, attribute: str) -> OccurrenceCounts:
        """The OccurrenceCounts table of a categorical attribute (Figure 4b).

        Raises:
            KeyError: for attributes that are not categorical in the schema.
        """
        try:
            return self._occurrences[attribute]
        except KeyError:
            raise KeyError(
                f"no occurrence counts for {attribute!r}; categorical "
                f"attributes: {sorted(self._occurrences)}"
            ) from None

    def splitpoints_table(self, attribute: str) -> SplitPointsTable:
        """The SplitPoints table of a numeric attribute (Figure 5b).

        Raises:
            KeyError: for attributes that are not numeric in the schema.
        """
        try:
            return self._splitpoints[attribute]
        except KeyError:
            raise KeyError(
                f"no splitpoints table for {attribute!r}; numeric "
                f"attributes: {sorted(self._splitpoints)}"
            ) from None

    def range_index(self, attribute: str) -> RangeIndex:
        """The sorted range-endpoint index of a numeric attribute."""
        try:
            return self._range_indexes[attribute]
        except KeyError:
            raise KeyError(
                f"no range index for {attribute!r}; numeric "
                f"attributes: {sorted(self._range_indexes)}"
            ) from None

    # -- NOverlap (Section 4.2) ----------------------------------------------

    def occ(self, attribute: str, value: Any) -> int:
        """``occ(v)`` = NOverlap of the single-value category ``A = v``."""
        return self.occurrence_counts(attribute).occ(value)

    def n_overlap_values(self, attribute: str, values: frozenset | set) -> int:
        """NOverlap of a multi-value categorical label ``A IN B``.

        Counted as queries whose IN-set intersects ``B``.  For single-value
        categories this equals ``occ(v)``; the general form supports
        broadened labels.
        """
        # occ() counts per-value; a query listing two values of B would be
        # double-counted by summing, which over-estimates NOverlap.  The
        # paper only ever needs single-value categorical labels, where the
        # two coincide; for multi-value labels we take the sum as an upper
        # bound, clamped to NAttr.
        total = sum(self.occ(attribute, v) for v in values)
        return min(total, self.n_attr(attribute))

    def n_overlap_range(
        self, attribute: str, low: float, high: float, high_inclusive: bool = False
    ) -> int:
        """NOverlap of a numeric label ``low <= A < high`` (Section 4.2)."""
        per_attribute = self._range_memo.get(attribute)
        if per_attribute is None:
            per_attribute = self._range_memo[attribute] = {}
        key = (low, high, high_inclusive)
        overlap = per_attribute.get(key)
        if overlap is None:
            perf.count("stats.range.memo_miss")
            overlap = per_attribute[key] = self.range_index(
                attribute
            ).count_overlapping(low, high, high_inclusive=high_inclusive)
        return overlap


#: Default grid spacing for numeric attributes absent an explicit setting.
DEFAULT_SEPARATION_INTERVAL = 1.0


def preprocess_workload(
    workload: Iterable[WorkloadQuery],
    schema: TableSchema,
    separation_intervals: Mapping[str, float] | None = None,
) -> WorkloadStatistics:
    """Scan ``workload`` once and build every count table.

    Args:
        workload: the query log, iterated once: a
            :class:`~repro.workload.log.Workload`, or a stream such as
            :func:`~repro.workload.log.read_log`, whose parsing then runs
            inside this scan and whose queries are dropped as they are
            folded.
        schema: the relation the queries target; attribute kinds decide
            which table each condition feeds.
        separation_intervals: per-attribute splitpoint grid spacing (the
            paper uses 5000/100/5 for price/square footage/year built);
            attributes not listed use :data:`DEFAULT_SEPARATION_INTERVAL`.

    Condition dispatch is :func:`fold_query_conditions` — see its docstring
    for the exact rules, including IN conditions on numeric attributes
    (degenerate point ranges) and range conditions on categorical
    attributes (``NAttr`` only).
    """
    intervals = dict(separation_intervals or {})
    usage = AttributeUsageCounts()
    occurrences = {
        attr.name: OccurrenceCounts(attr.name)
        for attr in schema.categorical_attributes()
    }
    splitpoints = {
        attr.name: SplitPointsTable(
            attr.name, intervals.get(attr.name, DEFAULT_SEPARATION_INTERVAL)
        )
        for attr in schema.numeric_attributes()
    }
    range_indexes = {
        attr.name: RangeIndex(attr.name) for attr in schema.numeric_attributes()
    }

    with perf.span("workload.preprocess"):
        for query in workload:
            fold_query_conditions(
                query, usage, occurrences, splitpoints, range_indexes
            )
        for index in range_indexes.values():
            index.finalize()
        # N is counted by the fold itself: a stream has no len().
        perf.count("workload.queries_folded", usage.total_queries)
    return WorkloadStatistics(
        schema=schema,
        usage=usage,
        occurrences=occurrences,
        splitpoints=splitpoints,
        range_indexes=range_indexes,
    )
