"""Tests for the No-Cost and Attr-Cost baselines (Section 6.1)."""

import pytest

from repro.core.baselines import (
    ArbitraryOrderCategoricalPartitioner,
    AttrCostCategorizer,
    EquiWidthNumericPartitioner,
    NoCostCategorizer,
)
from repro.core.config import PAPER_CONFIG, PAPER_RETAINED_ATTRIBUTES


@pytest.fixture(scope="module")
def rows(request):
    table = request.getfixturevalue("homes_table")
    query = request.getfixturevalue("seattle_query")
    return query.execute(table)


class TestNoCost:
    def test_valid_tree(self, rows, statistics, seattle_query):
        tree = NoCostCategorizer(statistics).categorize(rows, seattle_query)
        tree.validate()
        assert tree.technique == "no-cost"

    def test_attributes_come_from_predefined_set(self, rows, statistics, seattle_query):
        tree = NoCostCategorizer(statistics).categorize(rows, seattle_query)
        assert set(tree.level_attributes()) <= set(PAPER_RETAINED_ATTRIBUTES)

    def test_order_seed_none_uses_predefined_order(self, rows, statistics, seattle_query):
        tree = NoCostCategorizer(statistics, order_seed=None).categorize(
            rows, seattle_query
        )
        used = tree.level_attributes()
        # With no shuffle the first predefined attribute that refines leads.
        expected = [a for a in PAPER_RETAINED_ATTRIBUTES]
        assert used[0] == next(a for a in expected if a in used)

    def test_shuffled_orders_vary_across_calls(self, rows, statistics, seattle_query):
        categorizer = NoCostCategorizer(statistics, order_seed=3)
        first = categorizer.categorize(rows, seattle_query).level_attributes()
        orders = {tuple(first)}
        for _ in range(5):
            orders.add(
                tuple(categorizer.categorize(rows, seattle_query).level_attributes())
            )
        assert len(orders) > 1

    def test_custom_attribute_set(self, rows, statistics, seattle_query):
        categorizer = NoCostCategorizer(
            statistics, attribute_set=("price",), order_seed=None
        )
        tree = categorizer.categorize(rows, seattle_query)
        assert tree.level_attributes() == ["price"]


class TestAttrCost:
    def test_valid_tree(self, rows, statistics, seattle_query):
        tree = AttrCostCategorizer(statistics).categorize(rows, seattle_query)
        tree.validate()
        assert tree.technique == "attr-cost"

    def test_uses_naive_partitionings(self, rows, statistics, seattle_query):
        tree = AttrCostCategorizer(statistics).categorize(rows, seattle_query)
        config = PAPER_CONFIG
        for node in tree.nodes():
            if not node.children:
                continue
            label = node.children[0].label
            if hasattr(label, "low"):
                # Equi-width buckets sit on the 5x-separation-interval grid.
                width = 5 * config.separation_interval(label.attribute)
                for child in node.children[:-1]:
                    assert child.label.high % width == pytest.approx(0.0)

    def test_deterministic_attribute_choice(self, rows, statistics, seattle_query):
        a = AttrCostCategorizer(statistics).categorize(rows, seattle_query)
        b = AttrCostCategorizer(statistics).categorize(rows, seattle_query)
        assert a.level_attributes() == b.level_attributes()


class TestNoCostPartitioners:
    def test_arbitrary_order_is_value_sorted(self, rows):
        partitioner = ArbitraryOrderCategoricalPartitioner("neighborhood")
        parts = partitioner.partition(rows)
        values = [label.single_value for label, _ in parts]
        assert values == sorted(values, key=repr)

    def test_arbitrary_respects_query_universe(self, rows, seattle_query):
        partitioner = ArbitraryOrderCategoricalPartitioner(
            "neighborhood", query=seattle_query
        )
        parts = partitioner.partition(rows)
        universe = seattle_query.values_on("neighborhood")
        assert {label.single_value for label, _ in parts} <= universe

    def test_equi_width_partitioner(self, rows, seattle_query):
        partitioner = EquiWidthNumericPartitioner(
            "price", PAPER_CONFIG, query=seattle_query, root_rows=rows
        )
        assert partitioner.width == 25_000.0
        parts = partitioner.partition(rows)
        assert len(parts) > 1
        assert all(len(r) > 0 for _, r in parts)

    def test_equi_width_degenerate_range(self):
        from repro.data.homes import list_property_schema
        from repro.relational.table import Table

        empty = Table(list_property_schema()).all_rows()
        partitioner = EquiWidthNumericPartitioner(
            "price", PAPER_CONFIG, root_rows=empty
        )
        assert partitioner.partition(empty) == []
