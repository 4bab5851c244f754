"""Per-query decision traces: the categorizer's reasoning, made inspectable.

The Figure 6 algorithm makes one consequential decision per level — which
attribute minimizes ``COST_A`` — from inputs the runtime otherwise throws
away: the per-candidate ``CostAll``/``CostOne`` estimates, the workload
probabilities ``Pw`` (SHOWTUPLES) and ``P(C)`` (exploration) behind them,
and the attributes the Section 5.1.1 threshold-``x`` elimination removed
before the comparison even started.  A :class:`DecisionTrace` is the
structured record of all of it, built by
:meth:`LevelByLevelCategorizer.categorize(collect_trace=True)
<repro.core.algorithm.LevelByLevelCategorizer.categorize>` and attached
to the returned tree as ``tree.decision_trace``.

The trace is diagnostic, not hot-path: collecting it scores every
candidate under both cost scenarios, and under the baseline techniques
sizes every candidate too.  Sizes come from counts
(``Partitioner.sizes``), as the cost-based choice reads them, so tracing
partitions nothing beyond the chosen attribute.  Serve with it off; turn
it on per query when a tree needs explaining (``repro categorize
--explain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

#: Per-candidate node details kept in the trace (totals use every node).
MAX_NODE_DETAILS = 6

#: Child exploration probabilities kept per node evaluation.
MAX_CHILD_PROBABILITIES = 16


@dataclass(frozen=True)
class NodeEvaluation:
    """One oversized node scored under one candidate attribute.

    ``p_node`` is the node's exploration probability P(C); ``pw`` the
    SHOWTUPLES probability Pw the candidate attribute would induce on it;
    ``child_probabilities`` the P(Ci) of the candidate partitioning's
    categories in presentation order (capped at
    :data:`MAX_CHILD_PROBABILITIES`).  ``cost_all``/``cost_one`` are the
    node's one-level Equation (1)/(2) costs, children as leaves.
    """

    node: str
    tuples: int
    p_node: float
    pw: float
    categories: int
    child_probabilities: tuple[float, ...]
    children_truncated: bool
    cost_all: float
    cost_one: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "tuples": self.tuples,
            "p_node": self.p_node,
            "pw": self.pw,
            "categories": self.categories,
            "child_probabilities": list(self.child_probabilities),
            "children_truncated": self.children_truncated,
            "cost_all": self.cost_all,
            "cost_one": self.cost_one,
        }


@dataclass(frozen=True)
class CandidateDecision:
    """One candidate attribute's full showing at one level.

    ``cost_all`` is the level score ``COST_A = Σ P(C)·CostAll(Tree(C, A))``
    the argmin runs on; ``cost_one`` is the same aggregation under the ONE
    scenario (Equation 2), recorded so a surprising choice can be checked
    against both ends of the scenario spectrum.  Infinite costs mark an
    attribute that refined no oversized node.
    """

    attribute: str
    cost_all: float
    cost_one: float
    usage_fraction: float
    category_count: int
    refined_nodes: int
    nodes: tuple[NodeEvaluation, ...]
    nodes_truncated: bool

    @property
    def viable(self) -> bool:
        """False when the attribute could not refine any oversized node."""
        return math.isfinite(self.cost_all)

    def as_dict(self) -> dict[str, Any]:
        return {
            "attribute": self.attribute,
            "cost_all": self.cost_all,
            "cost_one": self.cost_one,
            "usage_fraction": self.usage_fraction,
            "category_count": self.category_count,
            "refined_nodes": self.refined_nodes,
            "viable": self.viable,
            "nodes": [node.as_dict() for node in self.nodes],
            "nodes_truncated": self.nodes_truncated,
        }


@dataclass(frozen=True)
class EliminatedAttribute:
    """An attribute removed by the ``NAttr(A)/N >= x`` elimination."""

    attribute: str
    usage_fraction: float

    def as_dict(self) -> dict[str, Any]:
        return {"attribute": self.attribute, "usage_fraction": self.usage_fraction}


@dataclass(frozen=True)
class LevelTrace:
    """The complete comparison behind one level's attribute choice."""

    level: int
    oversized_nodes: int
    oversized_tuples: int
    candidates: tuple[CandidateDecision, ...]
    chosen: str | None

    def candidate(self, attribute: str) -> CandidateDecision:
        """The record for one attribute.

        Raises:
            KeyError: if the attribute was not a candidate at this level.
        """
        for candidate in self.candidates:
            if candidate.attribute == attribute:
                return candidate
        raise KeyError(attribute)

    def as_dict(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "oversized_nodes": self.oversized_nodes,
            "oversized_tuples": self.oversized_tuples,
            "candidates": [c.as_dict() for c in self.candidates],
            "chosen": self.chosen,
        }


@dataclass
class DecisionTrace:
    """Everything the categorizer decided for one query, level by level.

    ``trace_id`` and ``served_rung`` are request-correlation fields set by
    the serving layer (:mod:`repro.serving.service`): the per-request
    trace ID ties this trace to the request's perf spans and response, and
    the served rung records which step of the degradation ladder actually
    answered (``full``, ``truncated``, ``single_level``, ``showtuples``).
    Both stay None for offline/CLI categorizations.
    """

    technique: str
    elimination_threshold: float
    eliminated: tuple[EliminatedAttribute, ...] = ()
    levels: list[LevelTrace] = field(default_factory=list)
    trace_id: str | None = None
    served_rung: str | None = None

    def chosen_attributes(self) -> list[str]:
        """The per-level winners, root-down (skipping refused levels)."""
        return [level.chosen for level in self.levels if level.chosen is not None]

    def as_dict(self) -> dict[str, Any]:
        """The whole trace as a JSON-ready dict (the export schema)."""
        return {
            "technique": self.technique,
            "elimination_threshold": self.elimination_threshold,
            "trace_id": self.trace_id,
            "served_rung": self.served_rung,
            "eliminated": [e.as_dict() for e in self.eliminated],
            "levels": [level.as_dict() for level in self.levels],
        }

    def render(self) -> str:
        """Human-readable report: elimination, then one table per level."""
        # Imported here: repro.study pulls in the algorithm module, whose
        # import of this module must not recurse through it.
        from repro.study.report import format_table

        sections: list[str] = []
        if self.eliminated:
            sections.append(
                format_table(
                    ["attribute", "NAttr/N", f"threshold x = {self.elimination_threshold}"],
                    [
                        [e.attribute, f"{e.usage_fraction:.3f}", "eliminated"]
                        for e in sorted(self.eliminated, key=lambda e: e.attribute)
                    ],
                    title="Eliminated before comparison (Section 5.1.1)",
                )
            )
        for level in self.levels:
            rows = []
            for candidate in sorted(
                level.candidates, key=lambda c: (not c.viable, c.cost_all)
            ):
                pw_values = [n.pw for n in candidate.nodes]
                mean_pw = sum(pw_values) / len(pw_values) if pw_values else 0.0
                rows.append(
                    [
                        candidate.attribute,
                        "-" if not candidate.viable else f"{candidate.cost_all:.1f}",
                        "-" if not candidate.viable else f"{candidate.cost_one:.1f}",
                        f"{candidate.usage_fraction:.2f}",
                        f"{mean_pw:.2f}",
                        candidate.category_count,
                        f"{candidate.refined_nodes}/{level.oversized_nodes}",
                        "<- chosen" if candidate.attribute == level.chosen else "",
                    ]
                )
            sections.append(
                format_table(
                    ["attribute", "CostAll", "CostOne", "NAttr/N", "Pw",
                     "categories", "nodes refined", ""],
                    rows,
                    title=(
                        f"Level {level.level}: {level.oversized_nodes} oversized "
                        f"nodes ({level.oversized_tuples} tuples)"
                        + ("" if level.chosen else " — no attribute chosen")
                    ),
                )
            )
        if not sections:
            return "(no categorization decisions: nothing was oversized)"
        return "\n\n".join(sections)
