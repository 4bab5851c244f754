"""Range partitioning for numeric attributes (Section 5.1.3).

The splitpoint heuristic: a gridpoint ``v`` where many workload query
ranges *begin or end* separates users who want the left bucket from users
who want the right one, so its goodness score is ``SUM(start_v, end_v)``.
To produce ``m`` buckets we take the top ``m−1`` splitpoints by goodness,
"leaving out the ones that are unnecessary" — a splitpoint being
unnecessary for a node when a bucket it creates "contains too few tuples".
Categories are always presented "in ascending order of the values of the
split points" (Example 5.1).

Every count the section needs comes from one :class:`Histogram` per
(node, attribute): the node's distinct finite values, ascending, with
cumulative counts.  A ``bisect`` on it answers both the necessity check
of :meth:`NumericPartitioner.select_splitpoints` and the bucket sizes of
:meth:`NumericPartitioner.sizes`, which is all the attribute choice of
Figure 6 reads.  Only :meth:`NumericPartitioner.partition`, called for
the attribute a level chose, builds the buckets' row sets.  The root's
histogram also supplies (vmin, vmax) when the query leaves a bound open.
NaN and ±inf fall in no bucket, so they neither count nor bound.

The module also provides the equi-width partitioning used by the No-Cost
baseline (Section 6.1: buckets "of width 5 times the width of the
separation interval").
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from typing import Mapping, NamedTuple, Sequence, TypeVar

from repro import perf
from repro.core.config import CategorizerConfig
from repro.core.labels import CategoryLabel, MissingLabel, NumericLabel
from repro.core.memo import NodeMemo, NodeMemos, memo_of, memoized
from repro.relational.query import SelectQuery
from repro.relational.table import RowSet
from repro.workload.preprocess import WorkloadStatistics

_Group = TypeVar("_Group")


class Histogram(NamedTuple):
    """One node's finite values of a numeric attribute, counted.

    ``values`` holds the distinct finite values, ascending;
    ``cumulative[i]`` is how many of the node's values lie below
    ``values[i]``, and ``cumulative[-1]`` is the node's finite total.
    ``nulls`` counts the node's NULLs (for the missing-value category).
    """

    values: Sequence[float]
    cumulative: array
    nulls: int

    @classmethod
    def of(cls, rows: RowSet, attribute: str) -> "Histogram":
        """Count ``rows`` on ``attribute``; NaN and ±inf are left out."""
        counts = rows.count_values(attribute)
        finite = sorted(
            value
            for value in counts
            if value is not None and -math.inf < value < math.inf
        )
        cumulative = array("q", [0])
        cumulative.extend(itertools.accumulate(counts[value] for value in finite))
        packed = array("q" if finite and type(finite[0]) is int else "d", finite)
        return cls(packed, cumulative, counts.get(None, 0))

    def bucket_counts(self, boundaries: Sequence[float]) -> dict[int, int]:
        """Non-empty bucket position → size, as
        :meth:`~repro.relational.table.RowSet.partition_by_buckets` would
        bucket the node: ``[b_k, b_k+1)``, the last bucket closed."""
        values, below = self.values, self.cumulative
        edges = [below[bisect.bisect_left(values, point)] for point in boundaries[:-1]]
        edges.append(below[bisect.bisect_right(values, boundaries[-1])])
        return {
            position: edges[position + 1] - edges[position]
            for position in range(len(edges) - 1)
            if edges[position + 1] > edges[position]
        }


#: The kind (first key item) of a node memo's histogram entries.
HISTOGRAM = "histogram"


def node_histogram(
    rows: RowSet, attribute: str, memo: NodeMemo | None = None
) -> Histogram:
    """``rows``' :class:`Histogram` on ``attribute``, filed in the node's
    ``memo``.

    The entry holds two packed arrays over the node's *distinct* values,
    not one entry per row.
    """
    return memoized(
        memo, (HISTOGRAM, attribute), lambda: Histogram.of(rows, attribute)
    )


def value_range(
    attribute: str,
    query: SelectQuery | None,
    root_rows: RowSet | None,
    memos: NodeMemos | None = None,
) -> tuple[float, float]:
    """(vmin, vmax) of a level's numeric partitionings on ``attribute``.

    A finite range on ``attribute`` in the query fixes a bound directly
    ("vmin and vmax can be obtained directly from Q"); a bound it leaves
    open comes from the result set ``root_rows``, whose histogram is
    filed in ``memos``.  With neither, the range is empty, (0.0, 0.0).
    """
    low = high = None
    if query is not None:
        bounds = query.range_on(attribute)
        if bounds is not None:
            query_low, query_high = bounds
            low = None if math.isinf(query_low) else float(query_low)
            high = None if math.isinf(query_high) else float(query_high)
    if (low is None or high is None) and root_rows is not None:
        # The root's histogram is the one the first level's splitpoint
        # selection reads; the build keeps it for every later level.
        values = node_histogram(root_rows, attribute, memo_of(memos, root_rows)).values
        if len(values):
            low = float(values[0]) if low is None else low
            high = float(values[-1]) if high is None else high
    if low is None or high is None:
        # No information at all: an empty range yields no splitpoints
        # and partition() degenerates to a single bucket.
        return 0.0, 0.0
    return low, max(low, high)


class NumericPartitioner:
    """Partitions nodes on one numeric attribute using workload splitpoints.

    Per Figure 6 the goodness-sorted splitpoint list (SPL) is computed once
    per level from the result set's value range; per node, the top
    *necessary* splitpoints are selected and the node's tuples bucketed.
    Instantiate once per (level, attribute).
    """

    def __init__(
        self,
        attribute: str,
        statistics: WorkloadStatistics,
        config: CategorizerConfig,
        query: SelectQuery | None = None,
        root_rows: RowSet | None = None,
        memos: NodeMemos | None = None,
    ) -> None:
        """Args:
            attribute: the categorizing attribute A.
            statistics: workload count tables (SplitPoints table for A).
            config: bucket count m, necessity threshold, auto-m settings.
            query: the user query; a finite range on A fixes (vmin, vmax)
                directly ("vmin and vmax can be obtained directly from Q").
            root_rows: the result set R, used to derive data bounds when
                the query leaves either end open.
            memos: the build's node memos; histograms and sizes of the
                row sets it maps are filed there.  None memoizes nothing.
        """
        self.attribute = attribute
        self.statistics = statistics
        self.config = config
        self._memos = memos
        self.vmin, self.vmax = value_range(attribute, query, root_rows, memos)
        table = statistics.splitpoints_table(attribute)
        self._splitpoints_by_goodness = (
            table.best_splitpoints(self.vmin, self.vmax)
            if self.vmin < self.vmax
            else []
        )
        self._target = self._target_splitpoint_count()
        # Everything a node's splitpoints and buckets depend on besides the
        # node itself: the memo key of sizes, so a memo hit skips the
        # splitpoint selection too.  The table's version changes with
        # every workload update, so an update misses the memo rather than
        # staling it.
        self._memo_key = (
            "sizes.numeric",
            attribute,
            self.vmin,
            self.vmax,
            table.version,
            self._target,
            config.min_bucket_tuples,
            config.include_missing_category,
        )

    # -- splitpoint selection ------------------------------------------------

    def select_splitpoints(self, rows: RowSet) -> list[float]:
        """Choose the top necessary splitpoints for this node (Section 5.1.3).

        Walks the SPL in decreasing goodness, skipping any point that would
        create a bucket with fewer than ``config.min_bucket_tuples`` of the
        node's tuples, until m−1 points are selected or the SPL runs out.
        Only finite values count: NaN and ±inf fall in no bucket.
        """
        histogram = node_histogram(rows, self.attribute, memo_of(self._memos, rows))
        if not histogram.cumulative[-1]:
            return []
        selected: list[float] = []
        for candidate in self._splitpoints_by_goodness:
            if len(selected) >= self._target:
                break
            if self._is_necessary(candidate, selected, histogram):
                bisect.insort(selected, candidate)
        return selected

    def _target_splitpoint_count(self) -> int:
        """m − 1, from config or from the goodness distribution (auto mode)."""
        if not self.config.auto_bucket_count:
            return self.config.bucket_count - 1
        table = self.statistics.splitpoints_table(self.attribute)
        rows = table.rows_in_range(self.vmin, self.vmax)
        scores = [row.goodness for row in rows if row.goodness > 0]
        if not scores:
            return self.config.bucket_count - 1
        threshold = sum(scores) / len(scores)
        strong = sum(1 for score in scores if score >= threshold)
        return max(1, min(strong, self.config.max_auto_buckets - 1))

    def _is_necessary(
        self, candidate: float, selected: list[float], histogram: Histogram
    ) -> bool:
        """True unless the candidate creates a too-small bucket.

        With the already-selected points in place, ``candidate`` splits one
        existing bucket into two; it is unnecessary if either side would
        hold fewer than the configured minimum of this node's tuples.
        """
        position = bisect.bisect_left(selected, candidate)
        left_edge = selected[position - 1] if position > 0 else self.vmin
        right_edge = selected[position] if position < len(selected) else self.vmax
        # The inner loop of every numeric candidate: bisect the histogram
        # inline rather than through its methods.
        values, below = histogram.values, histogram.cumulative
        below_candidate = below[bisect.bisect_left(values, candidate)]
        left_count = below_candidate - below[bisect.bisect_left(values, left_edge)]
        if position == len(selected):
            # Rightmost bucket is closed at vmax.
            right_end = below[bisect.bisect_right(values, right_edge)]
        else:
            right_end = below[bisect.bisect_left(values, right_edge)]
        right_count = right_end - below_candidate
        minimum = self.config.min_bucket_tuples
        return left_count >= minimum and right_count >= minimum

    # -- partitioning ------------------------------------------------------------

    def partition(self, rows: RowSet) -> list[tuple[CategoryLabel, RowSet]]:
        """Bucket ``rows`` on the selected splitpoints, ascending, non-empty.

        Returns a single-bucket "partitioning" (no refinement) when no
        splitpoint is both available and necessary — the caller treats a
        one-child partitioning as a failure to subdivide.
        """
        perf.count("partition.numeric.calls")
        with perf.span("partition.numeric"):
            return self._build_partitioning(rows, self.select_splitpoints(rows))

    def sizes(self, rows: RowSet) -> list[tuple[CategoryLabel, int]]:
        """``[(label, len(bucket)) for label, bucket in partition(rows)]``,
        counted on the node's histogram instead of bucketing its rows."""
        return list(
            memoized(
                memo_of(self._memos, rows),
                self._memo_key,
                lambda: self._count_sizes(rows, self.select_splitpoints(rows)),
            )
        )

    def _build_partitioning(
        self, rows: RowSet, splitpoints: list[float]
    ) -> list[tuple[CategoryLabel, RowSet]]:
        partitioning: list[tuple[CategoryLabel, RowSet]] = bucketize(
            self.attribute, rows, self.vmin, self.vmax, splitpoints
        )
        if self.config.include_missing_category:
            label = MissingLabel(self.attribute)
            missing = rows.select(label.to_predicate())
            if len(missing) > 0:
                partitioning.append((label, missing))
        return partitioning

    def _count_sizes(
        self, rows: RowSet, splitpoints: list[float]
    ) -> list[tuple[CategoryLabel, int]]:
        histogram = node_histogram(rows, self.attribute, memo_of(self._memos, rows))
        sizes: list[tuple[CategoryLabel, int]] = bucket_sizes(
            self.attribute, histogram, self.vmin, self.vmax, splitpoints
        )
        if self.config.include_missing_category and histogram.nulls:
            sizes.append((MissingLabel(self.attribute), histogram.nulls))
        return sizes

    def exploration_probability(self, label: NumericLabel) -> float:
        """``P(Ci) = NOverlap(Ci) / NAttr(A)`` for a bucket label."""
        n_attr = self.statistics.n_attr(self.attribute)
        if n_attr == 0:
            return 0.0
        overlap = self.statistics.n_overlap_range(
            self.attribute, label.low, label.high, high_inclusive=label.high_inclusive
        )
        return overlap / n_attr


def bucketize(
    attribute: str,
    rows: RowSet,
    vmin: float,
    vmax: float,
    splitpoints: list[float],
) -> list[tuple[NumericLabel, RowSet]]:
    """Build ordered non-empty buckets from boundary points.

    Buckets are half-open ``[a, b)`` except the last, which closes at vmax
    so the maximum value is included.  Tuples outside ``[vmin, vmax]`` (or
    NULL, NaN, ±inf) belong to no bucket.
    """
    boundaries = [vmin, *sorted(splitpoints), vmax]
    return _label_buckets(
        attribute, boundaries, rows.partition_by_buckets(attribute, boundaries)
    )


def bucket_sizes(
    attribute: str,
    histogram: Histogram,
    vmin: float,
    vmax: float,
    splitpoints: list[float],
) -> list[tuple[NumericLabel, int]]:
    """:func:`bucketize`'s labels with each bucket's size, from a histogram."""
    boundaries = [vmin, *sorted(splitpoints), vmax]
    return _label_buckets(attribute, boundaries, histogram.bucket_counts(boundaries))


def _label_buckets(
    attribute: str, boundaries: Sequence[float], buckets: Mapping[int, _Group]
) -> list[tuple[NumericLabel, _Group]]:
    """Label each non-empty bucket position, ascending; the last closes."""
    last = len(boundaries) - 2
    return [
        (
            NumericLabel(
                attribute,
                boundaries[position],
                boundaries[position + 1],
                high_inclusive=position == last,
            ),
            buckets[position],
        )
        for position in range(last + 1)
        if position in buckets
    ]


def equi_width_splitpoints(vmin: float, vmax: float, width: float) -> list[float]:
    """Every multiple of ``width`` strictly inside ``(vmin, vmax)``."""
    if width <= 0:
        raise ValueError(f"bucket width must be positive, got {width}")
    splitpoints: list[float] = []
    point = math.floor(vmin / width) * width + width
    while point < vmax:
        if point > vmin:
            splitpoints.append(point)
        point += width
    return splitpoints


def equi_width_partition(
    attribute: str,
    rows: RowSet,
    vmin: float,
    vmax: float,
    width: float,
) -> list[tuple[NumericLabel, RowSet]]:
    """The No-Cost baseline's partitioning (Section 6.1).

    Splits ``(vmin, vmax]`` at every multiple of ``width`` ("for price, the
    range is split at every multiple of 25000"), then removes empty
    buckets.
    """
    return bucketize(
        attribute, rows, vmin, vmax, equi_width_splitpoints(vmin, vmax, width)
    )
