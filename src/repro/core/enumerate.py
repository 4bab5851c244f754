"""Exhaustive search over categorizations (the Section 5 gold standard).

"We can enumerate all the permissible category trees on R, compute their
costs and pick the tree Topt with the minimum cost.  This enumerative
algorithm will produce the cost-optimal tree but could be prohibitively
expensive" — which is why the paper develops the greedy Figure 6
algorithm.  This module implements the enumeration over the part of the
space the greedy algorithm actually approximates: the assignment of
categorizing attributes to levels.  For every permutation of every subset
of the candidate attributes, a tree is built with that fixed level order
(using the paper's own per-level partitioners) and costed; the minimum is
the reference optimum.

Intended for small attribute sets (k attributes cost Σᵢ P(k, i) orders —
1,956 trees at k = 6); it exists so tests and benches can measure how far
the greedy algorithm lands from optimal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.algorithm import CostBasedCategorizer, LevelCandidates
from repro.core.config import CategorizerConfig, PAPER_CONFIG
from repro.core.cost import CostModel
from repro.core.memo import BuildMemo
from repro.core.probability import ProbabilityEstimator
from repro.core.tree import CategoryNode, CategoryTree
from repro.relational.query import SelectQuery
from repro.relational.table import RowSet
from repro.workload.preprocess import WorkloadStatistics


class FixedOrderCategorizer(CostBasedCategorizer):
    """Builds a tree using a prescribed attribute-per-level order.

    Partitionings are the cost-based ones (Sections 5.1.2 / 5.1.3); only
    the attribute *choice* is overridden.  Used by the enumerator and
    handy on its own when a designer wants to pin the hierarchy.
    """

    name = "fixed-order"

    def __init__(
        self,
        statistics: WorkloadStatistics,
        order: Sequence[str],
        config: CategorizerConfig = PAPER_CONFIG,
    ) -> None:
        super().__init__(statistics, config)
        self.order = tuple(order)

    def _candidate_attributes(
        self, rows: RowSet, query: SelectQuery | None
    ) -> Sequence[str]:
        return list(self.order)

    def _choose_attribute(
        self,
        oversized: list[CategoryNode],
        available: list[str],
        candidates: LevelCandidates,
    ) -> str | None:
        # ``available`` preserves the prescribed order; take its head if it
        # can refine anything, else stop (a fixed order has no fallback).
        if not available:
            return None
        head = available[0]
        if any(len(node_sizes) >= 2 for node_sizes in candidates(head)):
            return head
        return None


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of an exhaustive attribute-order search."""

    best_tree: CategoryTree
    best_order: tuple[str, ...]
    best_cost: float
    trees_evaluated: int
    costs_by_order: dict[tuple[str, ...], float]


def enumerate_optimal_tree(
    rows: RowSet,
    query: SelectQuery | None,
    statistics: WorkloadStatistics,
    config: CategorizerConfig = PAPER_CONFIG,
    max_orders: int = 10_000,
) -> EnumerationResult:
    """Find the min-CostAll tree over all attribute-to-level assignments.

    Candidate attributes are the Section 5.1.1 survivors (same as the
    greedy algorithm sees).  Every permutation of every non-empty subset
    is tried; orders that are a prefix of an already-built deeper order
    still get evaluated independently because partitioning stops early
    when all nodes fit in M — identical trees simply cost the same.
    One :class:`~repro.core.memo.BuildMemo` serves every order, so trees
    that share a prefix count and partition its nodes once.

    Args:
        max_orders: guardrail; exceeding it raises rather than silently
            truncating the search (a partial enumeration is not an
            optimum).

    Raises:
        ValueError: when the candidate set would require more than
            ``max_orders`` orders.
    """
    probe = CostBasedCategorizer(statistics, config)
    candidates = list(probe._candidate_attributes(rows, query))
    total_orders = _count_orders(len(candidates))
    if total_orders > max_orders:
        raise ValueError(
            f"{len(candidates)} candidate attributes require {total_orders} "
            f"orders > max_orders={max_orders}; restrict the schema or raise "
            "the limit"
        )

    cost_model = CostModel(ProbabilityEstimator(statistics), config)
    best_tree: CategoryTree | None = None
    best_order: tuple[str, ...] = ()
    best_cost = math.inf
    costs: dict[tuple[str, ...], float] = {}
    evaluated = 0
    memo = BuildMemo()

    for length in range(1, len(candidates) + 1):
        for order in itertools.permutations(candidates, length):
            tree = FixedOrderCategorizer(statistics, order, config).categorize(
                rows, query, memo=memo
            )
            cost = cost_model.tree_cost_all(tree)
            costs[order] = cost
            evaluated += 1
            if cost < best_cost:
                best_tree, best_order, best_cost = tree, order, cost

    if best_tree is None:  # no candidates at all: the bare-root tree
        best_tree = CategoryTree(CategoryNode(rows), query=query, technique="optimal")
        best_cost = cost_model.tree_cost_all(best_tree)
    return EnumerationResult(
        best_tree=best_tree,
        best_order=best_order,
        best_cost=best_cost,
        trees_evaluated=evaluated,
        costs_by_order=costs,
    )


def _count_orders(attribute_count: int) -> int:
    """Σ over non-empty subset sizes of P(n, k)."""
    return sum(
        math.perm(attribute_count, k) for k in range(1, attribute_count + 1)
    )
