"""Tests for the cost-based level-by-level categorizer (Figure 6)."""

import pytest

from repro.core.algorithm import CostBasedCategorizer
from repro.core.config import CategorizerConfig, PAPER_CONFIG


@pytest.fixture(scope="module")
def tree(homes_table_module, statistics_module, seattle_query_module):
    rows = seattle_query_module.execute(homes_table_module)
    categorizer = CostBasedCategorizer(statistics_module, PAPER_CONFIG)
    return categorizer.categorize(rows, seattle_query_module)


# Module-scoped clones of the session fixtures so the expensive tree is
# built once for this file.
@pytest.fixture(scope="module")
def homes_table_module(request):
    return request.getfixturevalue("homes_table")


@pytest.fixture(scope="module")
def statistics_module(request):
    return request.getfixturevalue("statistics")


@pytest.fixture(scope="module")
def seattle_query_module(request):
    return request.getfixturevalue("seattle_query")


class TestStructure:
    def test_tree_is_valid(self, tree):
        tree.validate()

    def test_technique_name(self, tree):
        assert tree.technique == "cost-based"

    def test_no_attribute_repeats(self, tree):
        attributes = tree.level_attributes()
        assert len(attributes) == len(set(attributes))

    def test_only_retained_attributes_used(self, tree, statistics_module):
        for attribute in tree.level_attributes():
            assert statistics_module.usage_fraction(attribute) >= 0.4

    def test_root_holds_whole_result(self, tree, homes_table_module, seattle_query_module):
        expected = len(seattle_query_module.execute(homes_table_module))
        assert tree.result_size == expected

    def test_leaves_respect_m_or_attributes_exhausted(self, tree):
        # A leaf larger than M is only legal when every retained attribute
        # was consumed on its path or could not refine it.
        attributes_available = 6
        for leaf in tree.leaves():
            if leaf.tuple_count > PAPER_CONFIG.max_tuples_per_category:
                assert leaf.level <= attributes_available

    def test_categorical_children_ordered_by_occ(self, tree, statistics_module):
        occ = statistics_module.occurrence_counts("neighborhood")
        for node in tree.nodes():
            if node.child_attribute == "neighborhood":
                counts = [
                    occ.occ(child.label.single_value) for child in node.children
                ]
                assert counts == sorted(counts, reverse=True)

    def test_numeric_children_ascending(self, tree):
        for node in tree.nodes():
            if not node.children:
                continue
            labels = [c.label for c in node.children]
            if hasattr(labels[0], "low"):
                lows = [l.low for l in labels]
                assert lows == sorted(lows)


class TestTermination:
    def test_small_result_yields_leaf_root(self, homes_table_module, statistics_module):
        from repro.relational.expressions import RangePredicate
        from repro.relational.query import SelectQuery

        query = SelectQuery("ListProperty", RangePredicate("price", 0, 35_000))
        rows = query.execute(homes_table_module)
        assert len(rows) <= 20
        tree = CostBasedCategorizer(statistics_module).categorize(rows, query)
        assert tree.root.is_leaf

    def test_max_levels_respected(self, homes_table_module, statistics_module, seattle_query_module):
        config = PAPER_CONFIG.with_overrides(max_levels=2)
        rows = seattle_query_module.execute(homes_table_module)
        tree = CostBasedCategorizer(statistics_module, config).categorize(
            rows, seattle_query_module
        )
        assert tree.depth() <= 2

    def test_smaller_m_gives_deeper_or_equal_trees(
        self, homes_table_module, statistics_module, seattle_query_module
    ):
        rows = seattle_query_module.execute(homes_table_module)
        shallow = CostBasedCategorizer(
            statistics_module, PAPER_CONFIG.with_overrides(max_tuples_per_category=100)
        ).categorize(rows, seattle_query_module)
        deep = CostBasedCategorizer(
            statistics_module, PAPER_CONFIG.with_overrides(max_tuples_per_category=10)
        ).categorize(rows, seattle_query_module)
        assert deep.node_count() >= shallow.node_count()


class TestCostOptimality:
    def test_chosen_level1_attribute_minimizes_one_level_cost(
        self, tree, statistics_module, homes_table_module, seattle_query_module
    ):
        """Re-size every candidate level-1 partitioning and check the
        algorithm's choice has minimal COST_A."""
        from repro.core.algorithm import CostBasedCategorizer as CBC

        categorizer = CBC(statistics_module, PAPER_CONFIG)
        rows = seattle_query_module.execute(homes_table_module)
        root_like = tree.root
        candidates = categorizer._candidate_attributes(rows, seattle_query_module)
        costs = {}
        for attribute in candidates:
            partitioner = categorizer._make_partitioner(
                attribute, seattle_query_module, rows
            )
            costs[attribute] = categorizer._level_cost(
                [root_like], attribute, [partitioner.sizes(rows)]
            )
        chosen = tree.level_attributes()[0]
        assert costs[chosen] == min(costs.values())

    def test_estimated_cost_beats_baselines_on_average(
        self, statistics_module, homes_table_module, seattle_query_module
    ):
        from repro.core.baselines import NoCostCategorizer
        from repro.core.cost import CostModel
        from repro.core.probability import ProbabilityEstimator

        rows = seattle_query_module.execute(homes_table_module)
        cost_model = CostModel(ProbabilityEstimator(statistics_module), PAPER_CONFIG)
        cost_based = CostBasedCategorizer(statistics_module).categorize(
            rows, seattle_query_module
        )
        no_cost = NoCostCategorizer(statistics_module, order_seed=99).categorize(
            rows, seattle_query_module
        )
        assert cost_model.tree_cost_all(cost_based) <= cost_model.tree_cost_all(no_cost)


class TestEdgeCases:
    def test_categorize_without_query(self, homes_table_module, statistics_module):
        rows = homes_table_module.all_rows()
        tree = CostBasedCategorizer(statistics_module).categorize(rows)
        tree.validate()
        assert tree.depth() >= 1

    def test_empty_result_set(self, homes_table_module, statistics_module):
        from repro.relational.expressions import InPredicate
        from repro.relational.query import SelectQuery

        query = SelectQuery(
            "ListProperty", InPredicate("neighborhood", ["Nowhere, XX"])
        )
        rows = query.execute(homes_table_module)
        tree = CostBasedCategorizer(statistics_module).categorize(rows, query)
        assert tree.root.is_leaf and tree.result_size == 0

    def test_empty_workload_statistics(self, homes_table_module, seattle_query_module):
        from repro.workload.log import Workload
        from repro.workload.preprocess import preprocess_workload

        empty_stats = preprocess_workload(Workload([]), homes_table_module.schema)
        rows = seattle_query_module.execute(homes_table_module)
        tree = CostBasedCategorizer(empty_stats).categorize(rows, seattle_query_module)
        # Every attribute is eliminated (NAttr/N undefined -> 0), so the
        # tree degenerates to a bare root — no workload, no categorization.
        assert tree.root.is_leaf


class TestLazyPartitionings:
    @pytest.mark.parametrize("technique", ["cost-based", "no-cost", "attr-cost"])
    def test_partition_runs_once_per_internal_node(
        self,
        technique,
        monkeypatch,
        homes_table_module,
        statistics_module,
        seattle_query_module,
    ):
        """Candidates are chosen from sizes: ``partition`` runs only for a
        level's chosen attribute, on exactly the nodes it refines."""
        from repro.core.baselines import (
            ArbitraryOrderCategoricalPartitioner,
            AttrCostCategorizer,
            EquiWidthNumericPartitioner,
            NoCostCategorizer,
        )
        from repro.core.partition import CategoricalPartitioner, NumericPartitioner

        calls = []
        for cls in (
            CategoricalPartitioner,
            NumericPartitioner,
            ArbitraryOrderCategoricalPartitioner,
            EquiWidthNumericPartitioner,
        ):
            def counted(self, rows, _partition=cls.partition):
                calls.append(len(rows))
                return _partition(self, rows)

            monkeypatch.setattr(cls, "partition", counted)
        categorizer = {
            "cost-based": CostBasedCategorizer,
            "no-cost": NoCostCategorizer,
            "attr-cost": AttrCostCategorizer,
        }[technique](statistics_module, PAPER_CONFIG)
        rows = seattle_query_module.execute(homes_table_module)
        tree = categorizer.categorize(rows, seattle_query_module)
        internal = [node for node in tree.nodes() if not node.is_leaf]
        assert len(internal) >= 2
        assert sorted(calls) == sorted(node.tuple_count for node in internal)
