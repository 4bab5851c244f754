"""Reference engine: Figure 6 choosing from materialized partitionings.

Kept only as the oracle of the differential tests in
``test_candidate_sizes.py``.  It is the level loop the engine ran before
candidates were scored from ``sizes``: every remaining candidate attribute
is *partitioned* on every oversized node, the choose-policies and the
decision trace read ``len()`` of those row sets, and the chosen
attribute's partitionings are attached as they are.  It reuses the
categorizer under test only for its candidate attributes, its
partitioners' ``partition`` (the spec ``sizes`` must agree with), its
estimator and its cost model.
"""

from __future__ import annotations

import math

from repro.core.algorithm import LevelByLevelCategorizer, Partitioning
from repro.core.trace import (
    MAX_CHILD_PROBABILITIES,
    MAX_NODE_DETAILS,
    CandidateDecision,
    DecisionTrace,
    LevelTrace,
    NodeEvaluation,
)
from repro.core.tree import CategoryNode, CategoryTree
from repro.relational.query import SelectQuery
from repro.relational.table import RowSet


def reference_categorize(
    categorizer: LevelByLevelCategorizer,
    rows: RowSet,
    query: SelectQuery | None = None,
    *,
    collect_trace: bool = False,
) -> CategoryTree:
    """Build ``categorizer``'s tree the materialize-everything way."""
    root = CategoryNode(rows)
    tree = CategoryTree(root, query=query, technique=categorizer.name)
    available = list(categorizer._candidate_attributes(rows, query))
    trace = None
    if collect_trace:
        trace = tree.decision_trace = DecisionTrace(
            technique=categorizer.name,
            elimination_threshold=categorizer.config.elimination_threshold,
            eliminated=categorizer._eliminated_attributes(rows, query),
        )
    frontier = [root]
    threshold = categorizer.config.max_tuples_per_category
    for _level in range(categorizer.config.max_levels):
        oversized = [node for node in frontier if node.tuple_count > threshold]
        if not oversized or not available:
            break
        partitionings: dict[str, list[Partitioning]] = {}
        for attribute in available:
            partitioner = categorizer._make_partitioner(attribute, query, rows)
            partitionings[attribute] = [
                partitioner.partition(node.rows) for node in oversized
            ]
        chosen = _choose(categorizer, oversized, available, partitionings)
        if trace is not None:
            trace.levels.append(
                LevelTrace(
                    level=len(trace.levels) + 1,
                    oversized_nodes=len(oversized),
                    oversized_tuples=sum(node.tuple_count for node in oversized),
                    candidates=tuple(
                        _candidate(categorizer, a, oversized, partitionings[a])
                        for a in available
                    ),
                    chosen=chosen,
                )
            )
        if chosen is None:
            break
        frontier = []
        for node, partitioning in zip(oversized, partitionings[chosen]):
            if len(partitioning) >= 2:
                frontier.extend(node.add_children(chosen, partitioning))
        available.remove(chosen)
        if not frontier:
            break
    return tree


def _refines(partitionings: list[Partitioning]) -> bool:
    return any(len(partitioning) >= 2 for partitioning in partitionings)


def _choose(categorizer, oversized, available, partitionings):
    if categorizer.name in ("no-cost", "fixed-order"):
        heads = available if categorizer.name == "no-cost" else available[:1]
        return next((a for a in heads if _refines(partitionings[a])), None)
    best_attribute, best_cost = None, math.inf
    for attribute in available:
        cost = _candidate(
            categorizer, attribute, oversized, partitionings[attribute]
        ).cost_all
        if cost < best_cost:
            best_attribute, best_cost = attribute, cost
    return best_attribute


def _candidate(
    categorizer: LevelByLevelCategorizer,
    attribute: str,
    oversized: list[CategoryNode],
    partitionings: list[Partitioning],
) -> CandidateDecision:
    """COST_A under both scenarios, children as leaves, read off row sets."""
    estimator = categorizer.estimator
    cost_model = categorizer.cost_model
    evaluations = []
    total_all = total_one = 0.0
    for node, partitioning in zip(oversized, partitionings):
        p_node = estimator.exploration_probability(node)
        if len(partitioning) < 2:
            pw, children = 1.0, []
            node_all = float(node.tuple_count)
            node_one = categorizer.config.frac * node.tuple_count
        else:
            pw = estimator.showtuples_probability_for(attribute, context=node)
            children = [
                estimator.exploration_probability_of_label(label, context=node)
                for label, _ in partitioning
            ]
            sized = [
                (p, len(child)) for p, (_, child) in zip(children, partitioning)
            ]
            node_all = cost_model.one_level_cost_all(
                node.tuple_count, attribute, sized, context=node
            )
            node_one = cost_model.one_level_cost_one(
                node.tuple_count, attribute, sized, context=node
            )
        total_all += p_node * node_all
        total_one += p_node * node_one
        if len(evaluations) < MAX_NODE_DETAILS:
            evaluations.append(
                NodeEvaluation(
                    node=node.display(),
                    tuples=node.tuple_count,
                    p_node=p_node,
                    pw=pw,
                    categories=len(partitioning),
                    child_probabilities=tuple(children[:MAX_CHILD_PROBABILITIES]),
                    children_truncated=len(children) > MAX_CHILD_PROBABILITIES,
                    cost_all=node_all,
                    cost_one=node_one,
                )
            )
    refines = _refines(partitionings)
    return CandidateDecision(
        attribute=attribute,
        cost_all=total_all if refines else math.inf,
        cost_one=total_one if refines else math.inf,
        usage_fraction=categorizer.statistics.usage_fraction(attribute),
        category_count=sum(len(p) for p in partitionings),
        refined_nodes=sum(1 for p in partitionings if len(p) >= 2),
        nodes=tuple(evaluations),
        nodes_truncated=len(oversized) > MAX_NODE_DETAILS,
    )
