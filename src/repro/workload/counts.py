"""The paper's precomputed count tables (Figures 4a, 4b, 5b).

Three structures are built once from the workload and consulted at query
time, "eliminating the need to access the workload at query time"
(Section 5.1.3):

* :class:`AttributeUsageCounts` — Figure 4(a): ``NAttr(A)``, the number of
  workload queries with a selection condition on attribute ``A``, plus the
  total query count ``N``.  Drives attribute elimination (Section 5.1.1)
  and the SHOWTUPLES probability ``Pw`` (Section 4.2).
* :class:`OccurrenceCounts` — Figure 4(b), one per categorical attribute:
  ``occ(v)``, the number of queries whose IN-clause on ``A`` contains value
  ``v``.  Drives single-value category ordering (Section 5.1.2) and equals
  ``NOverlap(C)`` for a single-value category.
* :class:`SplitPointsTable` — Figure 5(b), one per numeric attribute:
  per-gridpoint ``start_v`` / ``end_v`` counts and the goodness score
  ``SUM(start_v, end_v)`` (Section 5.1.3).

Additionally, :class:`RangeIndex` keeps the sorted range endpoints per
numeric attribute so that ``NOverlap(C)`` for a range label — the number of
query ranges intersecting a bucket — is an O(log n) computation rather than
a workload rescan.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable


class AttributeUsageCounts:
    """``NAttr(A)`` per attribute and the workload size ``N`` (Figure 4a)."""

    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()
        self._total_queries = 0

    def record_query(self, attributes: Iterable[str]) -> None:
        """Record one query constraining the given attributes."""
        self._total_queries += 1
        for attribute in set(attributes):
            self._counts[attribute] += 1

    def copy(self) -> "AttributeUsageCounts":
        """An independent copy (epoch-snapshot publishing clones tables)."""
        clone = AttributeUsageCounts()
        clone._counts = Counter(self._counts)
        clone._total_queries = self._total_queries
        return clone

    @property
    def total_queries(self) -> int:
        """``N``: the number of queries in the workload."""
        return self._total_queries

    def n_attr(self, attribute: str) -> int:
        """``NAttr(A)``: queries with a selection condition on ``attribute``."""
        return self._counts[attribute]

    def usage_fraction(self, attribute: str) -> float:
        """``NAttr(A) / N`` — the SHOWCAT probability ingredient.

        Returns 0.0 for an empty workload (no evidence of interest).
        """
        if self._total_queries == 0:
            return 0.0
        return self._counts[attribute] / self._total_queries

    def attributes(self) -> list[str]:
        """All attributes seen in any selection condition, most-used first."""
        return [name for name, _ in self._counts.most_common()]

    def as_rows(self) -> list[tuple[str, int]]:
        """Render as (attribute, NAttr) rows, most-used first — Figure 4(a)."""
        return list(self._counts.most_common())


class OccurrenceCounts:
    """``occ(v)`` for one categorical attribute (Figure 4b).

    The table is "indexed on the value to make the retrieval efficient" —
    here a dict, which is exactly that index.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._counts: Counter[Any] = Counter()

    def record_values(self, values: Iterable[Any]) -> None:
        """Record one query whose IN-clause on this attribute lists ``values``."""
        for value in set(values):
            self._counts[value] += 1

    def copy(self) -> "OccurrenceCounts":
        """An independent copy (epoch-snapshot publishing clones tables)."""
        clone = OccurrenceCounts(self.attribute)
        clone._counts = Counter(self._counts)
        return clone

    def occ(self, value: Any) -> int:
        """``occ(v)``: queries whose IN-clause contains ``value``."""
        return self._counts[value]

    def order_by_occurrence(self, values: Iterable[Any]) -> list[Any]:
        """Sort ``values`` by decreasing occ(v) (Section 5.1.2).

        Ties are broken by value repr so orderings are deterministic.
        """
        return sorted(values, key=lambda v: (-self._counts[v], repr(v)))

    def as_rows(self) -> list[tuple[Any, int]]:
        """Render as (value, occ) rows, most-occurring first — Figure 4(b)."""
        return sorted(self._counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))


@dataclass(frozen=True)
class SplitPointRow:
    """One row of the SplitPoints table (Figure 5b)."""

    splitpoint: float
    start_count: int
    end_count: int

    @property
    def goodness(self) -> int:
        """``SUM(start_v, end_v)`` — the splitpoint goodness score."""
        return self.start_count + self.end_count


#: Source of :attr:`SplitPointsTable.version`: one process-wide sequence,
#: so no two table states ever share a number.
_VERSIONS = itertools.count()


class SplitPointsTable:
    """Per-gridpoint start/end counts for one numeric attribute (Figure 5b).

    Query-range endpoints are snapped to a grid of the attribute's
    *separation interval* (paper: 5000 for price, 100 for square footage,
    5 for year built).  Infinite endpoints (one-sided conditions) do not
    contribute start/end counts — a user with no upper bound expresses no
    preference for any split.

    The goodness queries (:meth:`rows_in_range`, :meth:`best_splitpoints`)
    scan and sort every recorded gridpoint, and the partitioner issues them
    with the same ``(vmin, vmax)`` for every level of every categorization
    of the same query — so their results are memoized per bounds, and every
    :meth:`record_range` (a new log entry) drops the memo.
    """

    def __init__(self, attribute: str, separation_interval: float) -> None:
        if separation_interval <= 0:
            raise ValueError(
                f"separation interval for {attribute!r} must be positive, "
                f"got {separation_interval}"
            )
        self.attribute = attribute
        self.separation_interval = separation_interval
        self._starts: Counter[float] = Counter()
        self._ends: Counter[float] = Counter()
        # (vmin, vmax) -> goodness-sorted splitpoints; dropped on record_range.
        self._best_memo: dict[tuple[float, float], list[float]] = {}
        #: Names the table's counts: new on every change, unique in the
        #: process, so a memo keyed by it cannot outlive what it derived.
        self.version = next(_VERSIONS)

    def copy(self) -> "SplitPointsTable":
        """An independent copy, keeping the warm goodness memo.

        Epoch publishing clones the table before folding the pending
        delta; a delta that touches this attribute then clears the copied
        memo via :meth:`record_range`, while untouched attributes keep
        serving memoized answers in the new epoch (copy-on-write).
        """
        clone = SplitPointsTable(self.attribute, self.separation_interval)
        clone._starts = Counter(self._starts)
        clone._ends = Counter(self._ends)
        clone._best_memo = dict(self._best_memo)
        return clone

    def snap(self, value: float) -> float:
        """Snap a value to the nearest gridpoint."""
        interval = self.separation_interval
        return round(value / interval) * interval

    def record_range(self, low: float, high: float) -> None:
        """Record one query range ``low <= A <= high`` on this attribute.

        Invalidates the memoized goodness queries — new start/end counts
        can reorder every ``best_splitpoints`` answer.
        """
        if not math.isinf(low):
            self._starts[self.snap(low)] += 1
        if not math.isinf(high):
            self._ends[self.snap(high)] += 1
        self._best_memo.clear()
        self.version = next(_VERSIONS)

    def start_count(self, splitpoint: float) -> int:
        """``start_v``: query ranges starting at this gridpoint."""
        return self._starts[splitpoint]

    def end_count(self, splitpoint: float) -> int:
        """``end_v``: query ranges ending at this gridpoint."""
        return self._ends[splitpoint]

    def goodness(self, splitpoint: float) -> int:
        """``SUM(start_v, end_v)`` for this gridpoint."""
        return self._starts[splitpoint] + self._ends[splitpoint]

    def rows_in_range(self, vmin: float, vmax: float) -> list[SplitPointRow]:
        """All non-zero gridpoints strictly inside ``(vmin, vmax)``.

        Endpoints equal to vmin or vmax are excluded: splitting at the
        boundary of the query range would create an empty bucket.
        """
        points = set(self._starts) | set(self._ends)
        rows = [
            SplitPointRow(p, self._starts[p], self._ends[p])
            for p in points
            if vmin < p < vmax
        ]
        rows.sort(key=lambda row: row.splitpoint)
        return rows

    def best_splitpoints(self, vmin: float, vmax: float) -> list[float]:
        """Gridpoints in (vmin, vmax) by decreasing goodness (Section 5.1.3).

        Ties broken by ascending value for determinism.  The partitioner
        walks this list, skipping "unnecessary" points, until it has
        selected m−1 of them.  Memoized per ``(vmin, vmax)`` until the next
        :meth:`record_range`; callers must not mutate the returned list.
        """
        memoized = self._best_memo.get((vmin, vmax))
        if memoized is not None:
            return memoized
        rows = self.rows_in_range(vmin, vmax)
        rows.sort(key=lambda row: (-row.goodness, row.splitpoint))
        best = self._best_memo[(vmin, vmax)] = [row.splitpoint for row in rows]
        return best


class RangeIndex:
    """Sorted endpoint index over all query ranges on one numeric attribute.

    Supports ``NOverlap`` for a bucket label ``a1 <= A < a2`` in O(log n):
    the number of recorded ranges [low, high] intersecting [a1, a2) equals
    ``total − #{high < a1} − #{low >= a2}``.

    Endpoints are packed into ``array('d')`` — at paper scale (176 k
    workload queries) the two endpoint lists per numeric attribute are the
    statistics' largest resident structure, and the packed form is ~3.5×
    smaller than boxed floats while bisecting identically.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._lows: array = array("d")
        self._highs: array = array("d")
        self._finalized = False

    def record_range(self, low: float, high: float) -> None:
        """Record one (inclusive) query range.

        Appending after queries have been counted is allowed — the index
        marks itself dirty and re-sorts lazily on the next count — so live
        systems can stream new log entries into existing statistics.
        """
        self._lows.append(low)
        self._highs.append(high)
        self._finalized = False

    def copy(self) -> "RangeIndex":
        """An independent copy (epoch-snapshot publishing clones tables)."""
        clone = RangeIndex(self.attribute)
        clone._lows = array("d", self._lows)
        clone._highs = array("d", self._highs)
        clone._finalized = self._finalized
        return clone

    def finalize(self) -> None:
        """Sort the endpoint lists; called lazily before counting.

        ``array`` has no in-place sort, so each list is rebuilt from its
        sorted values; counting paths only ever see the sorted arrays.
        """
        self._lows = array("d", sorted(self._lows))
        self._highs = array("d", sorted(self._highs))
        self._finalized = True

    @property
    def is_finalized(self) -> bool:
        """False while appended ranges await the lazy re-sort."""
        return self._finalized

    @property
    def total_ranges(self) -> int:
        """Number of recorded ranges (== NAttr of the attribute, range part)."""
        return len(self._lows)

    def count_overlapping(self, low: float, high: float, high_inclusive: bool = False) -> int:
        """Count recorded ranges intersecting ``[low, high)`` (or ``[low, high]``).

        Category labels are half-open (``a1 <= A < a2``); pass
        ``high_inclusive=True`` to test against a closed interval instead.
        """
        if not self._finalized:
            self.finalize()
        total = len(self._lows)
        # Ranges entirely below the bucket: high < low.
        below = bisect.bisect_left(self._highs, low)
        # Ranges entirely above: low > high (closed) or low >= high (half-open).
        if high_inclusive:
            above = total - bisect.bisect_right(self._lows, high)
        else:
            above = total - bisect.bisect_left(self._lows, high)
        return total - below - above
