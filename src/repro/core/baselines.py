"""The comparison techniques of Section 6.1: No-Cost and Attr-Cost.

Both reuse the Figure 6 level-by-level engine but degrade one or both
policies:

* **No-Cost** — "selects the categorizing attribute at each level
  arbitrarily (without replacement) from a predefined set ... The
  partitioning based on a categorical attribute simply produces single
  valued categories in arbitrary order while that based on a numeric
  attribute partitions the range into equal width buckets of width 5 times
  the width of the separation interval ... all the empty categories are
  removed."
* **Attr-Cost** — "selects the attribute with the lowest cost as the
  categorizing attribute at each level but considers only those
  partitionings considered by the 'No cost' technique."

The paper's finding that Attr-Cost is often *worse* than No-Cost
("cost-based attribute selection is beneficial only when used in
conjunction with a cost-based intra-level partitioning") is one of the
shapes the benchmark suite checks.
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Sequence

from repro.core.algorithm import (
    LevelByLevelCategorizer,
    LevelCandidates,
    Partitioner,
    Partitioning,
    Sizes,
)
from repro.core.config import (
    CategorizerConfig,
    PAPER_CONFIG,
    PAPER_RETAINED_ATTRIBUTES,
)
from repro.core.memo import NodeMemos, memo_of
from repro.core.partition.categorical import (
    node_value_counts,
    query_universe,
    single_value_categories,
    universe_of,
)
from repro.core.partition.numeric import (
    bucket_sizes,
    bucketize,
    equi_width_splitpoints,
    node_histogram,
    value_range,
)
from repro.core.tree import CategoryNode
from repro.relational.query import SelectQuery
from repro.relational.table import RowSet
from repro.workload.preprocess import WorkloadStatistics


class ArbitraryOrderCategoricalPartitioner:
    """No-Cost categorical partitioning: single-value categories, value order.

    "Arbitrary" must still be deterministic for reproducibility; sorting by
    value is an order chosen with no reference to the workload, which is
    the property the baseline needs.
    """

    def __init__(
        self,
        attribute: str,
        query: SelectQuery | None = None,
        memos: NodeMemos | None = None,
    ) -> None:
        self.attribute = attribute
        self._universe = query_universe(query, attribute)
        self._memos = memos

    def _value_counts(self, rows: RowSet) -> Mapping[Any, int]:
        return node_value_counts(rows, self.attribute, memo_of(self._memos, rows))

    def _ordered(self, rows: RowSet) -> list[Any]:
        if self._universe is not None:
            return self._universe
        return universe_of(self._value_counts(rows))

    def partition(self, rows: RowSet) -> Partitioning:
        universe = self._ordered(rows)
        allowed = set(universe)
        buckets = rows.partition_by_attribute(
            self.attribute, lambda value: value if value in allowed else None
        )
        return single_value_categories(self.attribute, universe, buckets)

    def sizes(self, rows: RowSet) -> Sizes:
        return single_value_categories(
            self.attribute, self._ordered(rows), self._value_counts(rows)
        )


class EquiWidthNumericPartitioner:
    """No-Cost numeric partitioning: equal-width buckets, empty ones removed."""

    def __init__(
        self,
        attribute: str,
        config: CategorizerConfig,
        query: SelectQuery | None = None,
        root_rows: RowSet | None = None,
        memos: NodeMemos | None = None,
    ) -> None:
        self.attribute = attribute
        self.width = 5.0 * config.separation_interval(attribute)
        self._memos = memos
        self.vmin, self.vmax = value_range(attribute, query, root_rows, memos)
        self.splitpoints = (
            equi_width_splitpoints(self.vmin, self.vmax, self.width)
            if self.vmin < self.vmax
            else []
        )

    def partition(self, rows: RowSet) -> Partitioning:
        if self.vmin >= self.vmax:
            return []
        return bucketize(
            self.attribute, rows, self.vmin, self.vmax, self.splitpoints
        )

    def sizes(self, rows: RowSet) -> Sizes:
        if self.vmin >= self.vmax:
            return []
        return bucket_sizes(
            self.attribute,
            node_histogram(rows, self.attribute, memo_of(self._memos, rows)),
            self.vmin,
            self.vmax,
            self.splitpoints,
        )


class _NoCostPartitioningMixin(LevelByLevelCategorizer):
    """Shared policy: predefined attribute set + No-Cost partitionings."""

    def __init__(
        self,
        statistics: WorkloadStatistics,
        config: CategorizerConfig = PAPER_CONFIG,
        attribute_set: Sequence[str] = PAPER_RETAINED_ATTRIBUTES,
        order_seed: int | None = 13,
    ) -> None:
        """Args:
            attribute_set: the predefined categorizing attributes (the paper
                uses neighborhood, property-type, bedroomcount, price,
                year-built and square-footage).
            order_seed: seeds the "arbitrary" attribute order — each
                categorize() call draws a fresh shuffle from this stream,
                as an indifferent (workload-blind) designer would pick.
                Pass None to use the predefined order verbatim.
        """
        super().__init__(statistics, config)
        self.attribute_set = tuple(attribute_set)
        self._order_rng = (
            random.Random(order_seed) if order_seed is not None else None
        )

    def _candidate_attributes(
        self, rows: RowSet, query: SelectQuery | None
    ) -> Sequence[str]:
        schema_names = set(rows.table.schema.names())
        candidates = [a for a in self.attribute_set if a in schema_names]
        if self._order_rng is not None:
            self._order_rng.shuffle(candidates)
        return candidates

    def _make_partitioner(
        self,
        attribute: str,
        query: SelectQuery | None,
        root_rows: RowSet,
        memos: NodeMemos | None = None,
    ) -> Partitioner:
        schema_attribute = root_rows.table.schema.attribute(attribute)
        if schema_attribute.is_categorical:
            return ArbitraryOrderCategoricalPartitioner(
                attribute, query=query, memos=memos
            )
        return EquiWidthNumericPartitioner(
            attribute, self.config, query=query, root_rows=root_rows, memos=memos
        )


class NoCostCategorizer(_NoCostPartitioningMixin):
    """The No-Cost baseline: arbitrary attribute order, naive partitionings."""

    name = "no-cost"

    def _choose_attribute(
        self,
        oversized: list[CategoryNode],
        available: list[str],
        candidates: LevelCandidates,
    ) -> str | None:
        # "Arbitrarily (without replacement)": take the next attribute in
        # the (possibly shuffled) predefined order that refines any node.
        for attribute in available:
            if any(len(node_sizes) >= 2 for node_sizes in candidates(attribute)):
                return attribute
        return None


class AttrCostCategorizer(_NoCostPartitioningMixin):
    """The Attr-Cost baseline: cost-chosen attribute, naive partitionings."""

    name = "attr-cost"

    def _choose_attribute(
        self,
        oversized: list[CategoryNode],
        available: list[str],
        candidates: LevelCandidates,
    ) -> str | None:
        return self._cheapest_attribute(available, candidates)
