"""Tests for the per-query decision trace (the categorizer's explain)."""

import json
import math

import pytest

from repro.core.algorithm import CostBasedCategorizer
from repro.core.baselines import NoCostCategorizer
from repro.core.config import PAPER_CONFIG
from repro.core.trace import DecisionTrace, LevelTrace


@pytest.fixture(scope="module")
def traced_tree(request):
    statistics = request.getfixturevalue("statistics")
    seattle_query = request.getfixturevalue("seattle_query")
    seattle_rows = request.getfixturevalue("seattle_rows")
    categorizer = CostBasedCategorizer(statistics, PAPER_CONFIG)
    return categorizer.categorize(seattle_rows, seattle_query, collect_trace=True)


class TestCollection:
    def test_off_by_default(self, statistics, seattle_query, seattle_rows):
        categorizer = CostBasedCategorizer(statistics, PAPER_CONFIG)
        tree = categorizer.categorize(seattle_rows, seattle_query)
        assert tree.decision_trace is None

    def test_trace_attached_when_requested(self, traced_tree):
        assert isinstance(traced_tree.decision_trace, DecisionTrace)
        assert traced_tree.decision_trace.technique == "cost-based"

    def test_chosen_attributes_match_the_tree(self, traced_tree):
        trace = traced_tree.decision_trace
        assert trace.chosen_attributes() == traced_tree.level_attributes()

    def test_tracing_does_not_change_the_tree(
        self, statistics, seattle_query, seattle_rows, traced_tree
    ):
        categorizer = CostBasedCategorizer(statistics, PAPER_CONFIG)
        plain = categorizer.categorize(seattle_rows, seattle_query)
        traced_tree.validate()
        assert traced_tree.level_attributes() == plain.level_attributes()
        assert traced_tree.node_count() == plain.node_count()
        for traced, untraced in zip(traced_tree.nodes(), plain.nodes()):
            assert traced.display() == untraced.display()
            assert traced.rows.indices == untraced.rows.indices

    def test_traced_build_prices_each_candidate_once(
        self, statistics, seattle_query, seattle_rows
    ):
        """The trace reads the argmin's COST_A instead of pricing each
        (node, candidate) again, so a traced build evaluates one-level
        CostAll exactly as often as a plain one."""
        from repro import perf

        categorizer = CostBasedCategorizer(statistics, PAPER_CONFIG)
        evaluations = []
        for collect_trace in (False, True):
            perf.reset()
            perf.enable()
            try:
                categorizer.categorize(
                    seattle_rows, seattle_query, collect_trace=collect_trace
                )
            finally:
                perf.disable()
            evaluations.append(perf.get().counters.get("cost.one_level_evals", 0))
            perf.reset()
        assert evaluations[0] > 0
        assert evaluations[1] == evaluations[0]

    def test_reused_categorizer_traces_each_call_afresh(
        self, statistics, seattle_query, seattle_rows
    ):
        categorizer = CostBasedCategorizer(statistics, PAPER_CONFIG)
        first = categorizer.categorize(seattle_rows, seattle_query, collect_trace=True)
        second = categorizer.categorize(seattle_rows, seattle_query, collect_trace=True)
        assert first.decision_trace is not second.decision_trace
        assert len(first.decision_trace.levels) == len(second.decision_trace.levels)
        assert first.decision_trace.chosen_attributes() == (
            second.decision_trace.chosen_attributes()
        )


class TestLevelContents:
    def test_one_level_trace_per_tree_level(self, traced_tree):
        levels = traced_tree.decision_trace.levels
        assert len(levels) >= traced_tree.depth()
        assert [level.level for level in levels] == list(range(1, len(levels) + 1))

    def test_no_attribute_chosen_twice(self, traced_tree):
        chosen = traced_tree.decision_trace.chosen_attributes()
        assert len(chosen) == len(set(chosen))

    def test_chosen_attribute_minimizes_cost_all(self, traced_tree):
        for level in traced_tree.decision_trace.levels:
            if level.chosen is None:
                continue
            viable = [c for c in level.candidates if c.viable]
            best = min(viable, key=lambda c: c.cost_all)
            assert level.chosen == best.attribute
            assert level.candidate(level.chosen).cost_all == best.cost_all

    def test_costs_are_positive_and_ordered(self, traced_tree):
        for level in traced_tree.decision_trace.levels:
            for candidate in level.candidates:
                if not candidate.viable:
                    continue
                assert candidate.cost_all > 0
                assert candidate.cost_one > 0
                # browsing everything costs at least as much as finding one
                assert candidate.cost_one <= candidate.cost_all

    def test_node_evaluations_expose_probability_inputs(self, traced_tree):
        level = traced_tree.decision_trace.levels[0]
        for candidate in level.candidates:
            for node in candidate.nodes:
                assert 0.0 <= node.pw <= 1.0
                assert 0.0 <= node.p_node <= 1.0
                for p in node.child_probabilities:
                    assert 0.0 <= p <= 1.0

    def test_eliminated_attributes_below_threshold(self, traced_tree):
        trace = traced_tree.decision_trace
        assert trace.eliminated, "the default workload eliminates rare attributes"
        for eliminated in trace.eliminated:
            assert eliminated.usage_fraction < trace.elimination_threshold
        candidate_names = {
            c.attribute for level in trace.levels for c in level.candidates
        }
        assert candidate_names.isdisjoint(e.attribute for e in trace.eliminated)

    def test_candidate_lookup_raises_on_unknown(self, traced_tree):
        level = traced_tree.decision_trace.levels[0]
        with pytest.raises(KeyError):
            level.candidate("not-an-attribute")


class TestBaselineTraces:
    def test_baselines_get_traces_too(self, statistics, seattle_query, seattle_rows):
        categorizer = NoCostCategorizer(statistics, PAPER_CONFIG)
        tree = categorizer.categorize(seattle_rows, seattle_query, collect_trace=True)
        trace = tree.decision_trace
        assert trace.technique == categorizer.name
        assert trace.chosen_attributes() == list(tree.level_attributes())
        # the trace still scores candidates with the cost model, so a
        # baseline's choice need not minimize cost_all — but costs exist
        assert any(c.viable for level in trace.levels for c in level.candidates)


class TestSerialization:
    def test_as_dict_is_json_ready(self, traced_tree):
        payload = json.dumps(traced_tree.decision_trace.as_dict())
        data = json.loads(payload)
        assert data["technique"] == "cost-based"
        assert len(data["levels"]) == len(traced_tree.decision_trace.levels)
        for level in data["levels"]:
            assert {"level", "candidates", "chosen"} <= set(level)

    def test_render_shows_costs_and_choice(self, traced_tree):
        text = traced_tree.decision_trace.render()
        assert "CostAll" in text
        assert "CostOne" in text
        assert "<- chosen" in text
        for attribute in traced_tree.decision_trace.chosen_attributes():
            assert attribute in text
        for level in traced_tree.decision_trace.levels:
            assert f"Level {level.level}:" in text

    def test_render_ranks_candidates_by_cost_all(self, traced_tree):
        sections = traced_tree.decision_trace.render().split("\n\n")
        levels = [s for s in sections if s.startswith("Level ")]
        assert len(levels) == len(traced_tree.decision_trace.levels)
        for section in levels:
            # Skip title, header and rule lines; the rest are candidate rows.
            cells = [line.split()[1] for line in section.splitlines()[3:]]
            costs = [float(cell) for cell in cells if cell != "-"]
            assert costs == sorted(costs)
            # Candidates that refine nothing rank after every costed one.
            assert "-" not in cells[: len(costs)]

    def test_render_empty_trace(self):
        trace = DecisionTrace(technique="cost-based", elimination_threshold=0.4)
        assert "no categorization decisions" in trace.render()

    def test_nonviable_candidates_render_as_dashes(self):
        trace = DecisionTrace(technique="cost-based", elimination_threshold=0.4)
        from repro.core.trace import CandidateDecision

        trace.levels.append(
            LevelTrace(
                level=1,
                oversized_nodes=1,
                oversized_tuples=50,
                candidates=(
                    CandidateDecision(
                        attribute="price",
                        cost_all=math.inf,
                        cost_one=math.inf,
                        usage_fraction=0.5,
                        category_count=0,
                        refined_nodes=0,
                        nodes=(),
                        nodes_truncated=False,
                    ),
                ),
                chosen=None,
            )
        )
        text = trace.render()
        assert "no attribute chosen" in text
        assert "price" in text
