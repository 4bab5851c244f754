"""The categorization algorithm (Section 5, Figure 6).

``CategorizeResults`` builds the tree level by level: at each level it
collects the categories with more than ``M`` tuples, evaluates every
remaining candidate attribute by partitioning each such category and
scoring ``COST_A = Σ_{C∈S} P(C) · CostAll(Tree(C, A))``, attaches the
partitions of the argmin attribute, and recurses — one attribute per
level, never repeating an attribute (Section 3.1's validity constraints).

Scoring a candidate reads only each child category's label (for P(Ci))
and size (|tset(Ci)|), so candidates are scored from their partitioners'
``sizes``, which count instead of building row sets; ``partition`` runs
only for the attribute a level chose, on the nodes it refines.

Each level partitions its parents' tuples, so a tree is one permutation
of the result's positions (:class:`~repro.relational.table.Permutation`)
with every node a slice of it: attaching a node's children reorders its
slice in place (:meth:`~repro.relational.table.RowSlice.split`), and the
partitioners' row lists live only while one node is partitioned.  What a
level derives per node lives in that level's memos (:mod:`repro.core.memo`).

The module provides the shared level-by-level engine
(:class:`LevelByLevelCategorizer`) parameterized over two policies —
*how to partition* on an attribute and *how to choose* the level's
attribute — and the paper's full cost-based instantiation
(:class:`CostBasedCategorizer`).  The No-Cost / Attr-Cost baselines of
Section 6.1 instantiate the same engine with degraded policies (see
:mod:`repro.core.baselines`), exactly as the paper describes ("the 'No
cost' technique uses the same level-by-level categorization algorithm").
"""

from __future__ import annotations

import math
from typing import Callable, Protocol, Sequence

from repro import perf
from repro.core.config import CategorizerConfig, PAPER_CONFIG
from repro.core.cost import CostModel
from repro.core.labels import CategoryLabel
from repro.core.memo import BuildMemo, NodeMemo, NodeMemos, memo_of
from repro.core.partition.categorical import CategoricalPartitioner
from repro.core.partition.numeric import HISTOGRAM, NumericPartitioner
from repro.core.probability import ProbabilityEstimator
from repro.core.trace import (
    MAX_CHILD_PROBABILITIES,
    MAX_NODE_DETAILS,
    CandidateDecision,
    DecisionTrace,
    EliminatedAttribute,
    LevelTrace,
    NodeEvaluation,
)
from repro.core.tree import CategoryNode, CategoryTree
from repro.relational.query import SelectQuery
from repro.relational.table import RowSet, RowSlice
from repro.workload.preprocess import WorkloadStatistics

Partitioning = list[tuple[CategoryLabel, RowSet]]

#: A partitioning as counts: each category's label and ``|tset|``.
Sizes = list[tuple[CategoryLabel, int]]


#: The kind (first key item) of a node memo's partitioning entries.
_PARTITIONING = "partitioning"


def _release_level(
    memos: dict[RowSet, NodeMemo], oversized: list[CategoryNode]
) -> None:
    """Drop what a build derived from a level's nodes once the level is
    attached; the root keeps its histograms, which every later level's
    numeric partitioners read to resolve their ranges."""
    for node in oversized:
        if node.is_root:
            root_memo = memos[node.rows]
            for key in [key for key in root_memo if key[0] != HISTOGRAM]:
                del root_memo[key]
        else:
            del memos[node.rows]


class Partitioner(Protocol):
    """A per-(level, attribute) partitioning policy.

    ``sizes(rows)`` must equal ``[(label, len(child)) for label, child in
    partition(rows)]``: candidates are scored from sizes alone.
    """

    def partition(self, rows: RowSet) -> Partitioning: ...

    def sizes(self, rows: RowSet) -> Sizes: ...


#: One oversized node as a candidate attribute prices it: ``P(C)``, each
#: category's ``(P(Ci), |tset(Ci)|)`` (none when the node stays a leaf)
#: and the node's one-level ``CostAll(Tree(C, A))``.
PricedNode = tuple[float, Sequence[tuple[float, int]], float]


class LevelCandidates:
    """One level's candidate attributes, sized and priced over its
    oversized nodes.

    Calling it with an attribute builds the attribute's partitioner and
    sizes every oversized node on first use, then serves the result, so a
    choose-policy that stops early (No-Cost, a fixed order) sizes only the
    attributes it looks at.  :meth:`cost` prices an attribute once in the
    same way, so the argmin and the decision trace of a traced build read
    one ``COST_A``.
    """

    def __init__(
        self,
        categorizer: "LevelByLevelCategorizer",
        oversized: list[CategoryNode],
        query: SelectQuery | None,
        root_rows: RowSet,
        memos: NodeMemos,
        traced: bool,
    ) -> None:
        self._categorizer = categorizer
        self._oversized = oversized
        self._query = query
        self._root_rows = root_rows
        self._memos = memos
        self._traced = traced
        self._partitioners: dict[str, Partitioner] = {}
        self._sizes: dict[str, list[Sizes]] = {}
        self._costs: dict[str, tuple[float, list[PricedNode] | None]] = {}

    def partitioner(self, attribute: str) -> Partitioner:
        partitioner = self._partitioners.get(attribute)
        if partitioner is None:
            partitioner = self._partitioners[attribute] = (
                self._categorizer._make_partitioner(
                    attribute, self._query, self._root_rows, self._memos
                )
            )
        return partitioner

    def __call__(self, attribute: str) -> list[Sizes]:
        sizes = self._sizes.get(attribute)
        if sizes is None:
            partitioner = self.partitioner(attribute)
            sizes = self._sizes[attribute] = [
                partitioner.sizes(node.rows) for node in self._oversized
            ]
        return sizes

    def cost(self, attribute: str) -> tuple[float, list[PricedNode] | None]:
        """The attribute's ``COST_A`` over the level and, in a traced
        build, what each node contributed to it."""
        cost = self._costs.get(attribute)
        if cost is None:
            priced: list[PricedNode] | None = [] if self._traced else None
            total = self._categorizer._level_cost(
                self._oversized, attribute, self(attribute), priced
            )
            cost = self._costs[attribute] = (total, priced)
        return cost


class LevelByLevelCategorizer:
    """The Figure 6 engine, shared by the cost-based algorithm and baselines.

    Subclasses override :meth:`_candidate_attributes`,
    :meth:`_make_partitioner` and :meth:`_choose_attribute`.
    """

    name = "abstract"

    def __init__(
        self,
        statistics: WorkloadStatistics,
        config: CategorizerConfig = PAPER_CONFIG,
        estimator: ProbabilityEstimator | None = None,
    ) -> None:
        """Args:
            statistics: preprocessed workload count tables.
            config: algorithm tunables (M, K, x, m, ...).
            estimator: probability estimator; defaults to the paper's
                independence-assuming :class:`ProbabilityEstimator`.  Pass
                a :class:`~repro.core.correlation.CorrelationAwareEstimator`
                to enable the Section 5.2 conditional estimation.
        """
        self.statistics = statistics
        self.config = config
        self.estimator = estimator or ProbabilityEstimator(statistics)
        self.cost_model = CostModel(self.estimator, config)

    # -- public API -------------------------------------------------------------

    def categorize(
        self,
        rows: RowSet,
        query: SelectQuery | None = None,
        *,
        collect_trace: bool = False,
        checkpoint: Callable[[], bool] | None = None,
        memo: BuildMemo | None = None,
    ) -> CategoryTree:
        """Build a category tree over the result set ``rows`` of ``query``.

        Terminates when every category holds at most ``M`` tuples, when the
        candidate attributes are exhausted, or when no remaining attribute
        can refine any oversized category.

        The tree's nodes are slices of one permutation of ``rows``'
        positions, each reading its rows in ``rows``' order; the tree keeps
        no reference to ``rows`` itself.

        With ``collect_trace=True`` the returned tree additionally carries
        a :class:`~repro.core.trace.DecisionTrace` on
        ``tree.decision_trace``: per level, every candidate attribute with
        its estimated CostAll/CostOne, the Pw/P probabilities behind them,
        the threshold-``x`` eliminated set, and the chosen attribute.
        Tracing sizes and scores every candidate under both cost scenarios,
        even where the choose-policy stopped early.

        ``checkpoint``, when given, is consulted before each level is
        built; returning False stops the tree from growing further and the
        levels already attached are returned with ``tree.truncated`` set.
        This is the deadline hook the serving layer's degradation ladder
        uses (:mod:`repro.serving.degrade`): a budget that runs out
        mid-build keeps the work already done instead of discarding it.

        ``memo``, for callers that categorize the same ``rows`` again
        (with other settings, or to re-render), keeps every node's value
        counts, histograms, candidate sizes and partitioning for the next
        call given the same handle.  Without it, each level's are
        released once the level is attached.
        """
        perf.count("categorize.calls")
        with perf.span("categorize"):
            root = CategoryNode(RowSlice.over(rows))
            tree = CategoryTree(root, query=query, technique=self.name)
            available = list(self._candidate_attributes(rows, query))
            trace: DecisionTrace | None = None
            if collect_trace:
                trace = DecisionTrace(
                    technique=self.name,
                    elimination_threshold=self.config.elimination_threshold,
                    eliminated=self._eliminated_attributes(rows, query),
                )
                tree.decision_trace = trace
            memos: dict[RowSet, NodeMemo] = {
                root.rows: {} if memo is None else memo.root_of(rows)
            }
            frontier: list[CategoryNode] = [root]
            threshold = self.config.max_tuples_per_category

            for _level in range(1, self.config.max_levels + 1):
                oversized = [
                    node for node in frontier if node.tuple_count > threshold
                ]
                if not oversized or not available:
                    break
                if checkpoint is not None and not checkpoint():
                    tree.truncated = True
                    perf.count("categorize.checkpoint_stops")
                    break
                with perf.span("categorize.level"):
                    for node in oversized:
                        memos.setdefault(node.rows, {})
                    candidates = LevelCandidates(
                        self, oversized, query, root.rows, memos, trace is not None
                    )
                    chosen = self._choose_attribute(oversized, available, candidates)
                    if trace is not None:
                        trace.levels.append(
                            self._trace_level(
                                len(trace.levels) + 1,
                                oversized,
                                available,
                                candidates,
                                chosen,
                            )
                        )
                    if chosen is None:
                        break
                    frontier = self._attach_level(
                        oversized,
                        chosen,
                        candidates.partitioner(chosen),
                        candidates(chosen),
                        memos if memo is not None else None,
                    )
                    if memo is None:
                        _release_level(memos, oversized)
                    perf.count("categorize.levels")
                available.remove(chosen)
                if not frontier:
                    break
            return tree

    # -- level mechanics ------------------------------------------------------------

    @staticmethod
    def _attach_level(
        oversized: list[CategoryNode],
        attribute: str,
        partitioner: Partitioner,
        sizes: list[Sizes],
        kept: dict[RowSet, NodeMemo] | None,
    ) -> list[CategoryNode]:
        """Partition the nodes the chosen attribute refines and attach the
        partitions; return the new frontier.

        Each node's slice is split into its children's, in the
        partitioning's order.  ``kept`` (the memos of a build with a
        :class:`~repro.core.memo.BuildMemo`) files in each node's memo,
        per attribute, the sizes the node was partitioned for, its
        children's positions (packed) and its children's memos, and
        registers those memos for the children's views.  A node's memo is
        thus reached from the root's along its label path: over one
        result set, equal labels name the same rows in every tree, so a
        later build whose sizes for the node are equal reuses all three.

        A node whose sizes name fewer than two categories is left a leaf,
        unpartitioned: a single pass-through category would add a label
        with no discriminating power.
        """
        new_frontier: list[CategoryNode] = []
        for node, node_sizes in zip(oversized, sizes):
            if len(node_sizes) < 2:
                continue
            rows = node.rows
            memo = memo_of(kept, rows)
            saved = None if memo is None else memo.get((_PARTITIONING, attribute))
            if saved is not None and saved[0] == node_sizes:
                labels = [label for label, _ in node_sizes]
                children = rows.split(saved[1])
            else:
                partitioning = partitioner.partition(rows)
                labels = [label for label, _ in partitioning]
                children = rows.split([part.positions() for _, part in partitioning])
                if memo is not None:
                    saved = memo[(_PARTITIONING, attribute)] = (
                        node_sizes,
                        [child.positions() for child in children],
                        [{} for _ in children],
                    )
            if kept is not None:
                kept.update(zip(children, saved[2]))
            new_frontier.extend(
                node.add_children(attribute, list(zip(labels, children)))
            )
        return new_frontier

    def _level_cost(
        self,
        oversized: list[CategoryNode],
        attribute: str,
        sizes: list[Sizes],
        priced: list[PricedNode] | None = None,
    ) -> float:
        """``COST_A = Σ_{C∈S} P(C) · CostAll(Tree(C, A))`` (Figure 6), the
        one sum the argmin and the decision trace both read.

        Children are scored as leaves (their own subdivision is decided at
        later levels).  An attribute that refines no node scores infinity.
        ``priced``, when given, receives each node's :data:`PricedNode`.
        """
        refines = any(len(node_sizes) >= 2 for node_sizes in sizes)
        if not refines and priced is None:
            return math.inf
        total = 0.0
        for node, node_sizes in zip(oversized, sizes):
            p_node = self.estimator.exploration_probability(node)
            children: Sequence[tuple[float, int]] = ()
            if len(node_sizes) < 2:
                # The node stays a leaf under this attribute.
                node_all = float(node.tuple_count)
            else:
                children = [
                    (
                        self.estimator.exploration_probability_of_label(
                            label, context=node
                        ),
                        size,
                    )
                    for label, size in node_sizes
                ]
                node_all = self.cost_model.one_level_cost_all(
                    node.tuple_count, attribute, children, context=node
                )
            total += p_node * node_all
            if priced is not None:
                priced.append((p_node, children, node_all))
        return total if refines else math.inf

    @staticmethod
    def _cheapest_attribute(
        available: list[str], candidates: LevelCandidates
    ) -> str | None:
        """The argmin of :meth:`_level_cost`; ties go to the earlier one."""
        best_attribute: str | None = None
        best_cost = math.inf
        for attribute in available:
            cost, _ = candidates.cost(attribute)
            if cost < best_cost:
                best_attribute, best_cost = attribute, cost
        return best_attribute

    # -- decision tracing -----------------------------------------------------------

    def _trace_level(
        self,
        level: int,
        oversized: list[CategoryNode],
        available: list[str],
        candidates: LevelCandidates,
        chosen: str | None,
    ) -> LevelTrace:
        """Score every candidate under both scenarios for the decision trace.

        Every candidate is reported, so the trace shows what the paper's
        cost model says about each one even when a degraded baseline policy
        (No-Cost, Attr-Cost) ignored it.  CostAll is the argmin's
        :meth:`_level_cost`, read from ``candidates``.
        """
        with perf.span("categorize.trace"):
            decisions = tuple(
                self._trace_candidate(attribute, oversized, candidates)
                for attribute in available
            )
            return LevelTrace(
                level=level,
                oversized_nodes=len(oversized),
                oversized_tuples=sum(node.tuple_count for node in oversized),
                candidates=decisions,
                chosen=chosen,
            )

    def _trace_candidate(
        self,
        attribute: str,
        oversized: list[CategoryNode],
        candidates: LevelCandidates,
    ) -> CandidateDecision:
        """One candidate's CostAll/CostOne aggregation with its Pw/P inputs."""
        sizes = candidates(attribute)
        cost_all, priced = candidates.cost(attribute)
        refines = any(len(node_sizes) >= 2 for node_sizes in sizes)
        evaluations: list[NodeEvaluation] = []
        total_one = 0.0
        frac = self.config.frac
        for node, node_sizes, (p_node, children, node_all) in zip(
            oversized, sizes, priced
        ):
            if len(node_sizes) < 2:
                # The node stays a leaf under this attribute.
                pw = 1.0
                node_one = frac * node.tuple_count
            else:
                pw = self.estimator.showtuples_probability_for(
                    attribute, context=node
                )
                node_one = self.cost_model.one_level_cost_one(
                    node.tuple_count, attribute, children, context=node
                )
            total_one += p_node * node_one
            if len(evaluations) < MAX_NODE_DETAILS:
                evaluations.append(
                    NodeEvaluation(
                        node=node.display(),
                        tuples=node.tuple_count,
                        p_node=p_node,
                        pw=pw,
                        categories=len(node_sizes),
                        child_probabilities=tuple(
                            p for p, _ in children[:MAX_CHILD_PROBABILITIES]
                        ),
                        children_truncated=len(children) > MAX_CHILD_PROBABILITIES,
                        cost_all=node_all,
                        cost_one=node_one,
                    )
                )
        return CandidateDecision(
            attribute=attribute,
            cost_all=cost_all,
            cost_one=total_one if refines else math.inf,
            usage_fraction=self.statistics.usage_fraction(attribute),
            category_count=sum(len(node_sizes) for node_sizes in sizes),
            refined_nodes=sum(1 for node_sizes in sizes if len(node_sizes) >= 2),
            nodes=tuple(evaluations),
            nodes_truncated=len(oversized) > MAX_NODE_DETAILS,
        )

    def _eliminated_attributes(
        self, rows: RowSet, query: SelectQuery | None
    ) -> tuple[EliminatedAttribute, ...]:
        """Attributes the candidate policy refused, for the decision trace.

        The base engine has no elimination; the cost-based subclass
        reports the Section 5.1.1 threshold-``x`` rejects.
        """
        return ()

    # -- policy hooks --------------------------------------------------------------

    def _candidate_attributes(
        self, rows: RowSet, query: SelectQuery | None
    ) -> Sequence[str]:
        raise NotImplementedError

    def _make_partitioner(
        self,
        attribute: str,
        query: SelectQuery | None,
        root_rows: RowSet,
        memos: NodeMemos | None = None,
    ) -> Partitioner:
        """The level's partitioner for ``attribute``; ``memos`` are the
        build's node memos (None memoizes nothing)."""
        raise NotImplementedError

    def _choose_attribute(
        self,
        oversized: list[CategoryNode],
        available: list[str],
        candidates: LevelCandidates,
    ) -> str | None:
        """Pick the level's attribute; ``candidates(attribute)`` gives each
        oversized node's candidate categories as (label, size), and
        ``candidates.cost(attribute)`` their ``COST_A``, computed only for
        the attributes asked about."""
        raise NotImplementedError


class CostBasedCategorizer(LevelByLevelCategorizer):
    """The paper's algorithm: cost-based attribute choice AND partitioning.

    * Candidate attributes survive the Section 5.1.1 elimination:
      ``NAttr(A)/N >= x``.
    * Categorical attributes get single-value categories ordered by
      decreasing occ(v) (Section 5.1.2).
    * Numeric attributes get buckets at the top necessary workload
      splitpoints, ascending (Section 5.1.3).
    * Each level's attribute minimizes ``COST_A`` (Figure 6).
    """

    name = "cost-based"

    def _candidate_attributes(
        self, rows: RowSet, query: SelectQuery | None
    ) -> Sequence[str]:
        schema = rows.table.schema
        threshold = self.config.elimination_threshold
        retained = [
            attribute.name
            for attribute in schema
            if self.statistics.usage_fraction(attribute.name) >= threshold
        ]
        # Most-used first, so ties in COST_A resolve toward attributes with
        # more workload evidence.
        retained.sort(
            key=lambda name: (-self.statistics.usage_fraction(name), name)
        )
        return retained

    def _eliminated_attributes(
        self, rows: RowSet, query: SelectQuery | None
    ) -> tuple[EliminatedAttribute, ...]:
        threshold = self.config.elimination_threshold
        return tuple(
            EliminatedAttribute(
                attribute=attribute.name,
                usage_fraction=self.statistics.usage_fraction(attribute.name),
            )
            for attribute in rows.table.schema
            if self.statistics.usage_fraction(attribute.name) < threshold
        )

    def _make_partitioner(
        self,
        attribute: str,
        query: SelectQuery | None,
        root_rows: RowSet,
        memos: NodeMemos | None = None,
    ) -> Partitioner:
        schema_attribute = root_rows.table.schema.attribute(attribute)
        if schema_attribute.is_categorical:
            return CategoricalPartitioner(
                attribute,
                self.statistics,
                query=query,
                include_missing=self.config.include_missing_category,
                memos=memos,
            )
        return NumericPartitioner(
            attribute,
            self.statistics,
            self.config,
            query=query,
            root_rows=root_rows,
            memos=memos,
        )

    def _choose_attribute(
        self,
        oversized: list[CategoryNode],
        available: list[str],
        candidates: LevelCandidates,
    ) -> str | None:
        return self._cheapest_attribute(available, candidates)
