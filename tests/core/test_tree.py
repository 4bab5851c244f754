"""Tests for the category tree structure and its invariants."""

import pytest

from repro.core.labels import CategoricalLabel, NumericLabel
from repro.core.tree import CategoryNode, CategoryTree
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType


@pytest.fixture
def table():
    schema = TableSchema(
        "T",
        (Attribute("city", DataType.TEXT), Attribute("price", DataType.INT)),
    )
    t = Table(schema)
    t.extend(
        [
            {"city": "a", "price": 100},
            {"city": "a", "price": 300},
            {"city": "b", "price": 200},
            {"city": "b", "price": 400},
        ]
    )
    return t


@pytest.fixture
def tree(table):
    """ALL -> city {a, b} -> price buckets under 'a'."""
    root = CategoryNode(table.all_rows())
    parts = table.all_rows().partition_by(lambda r: r["city"])
    a_node, b_node = root.add_children(
        "city",
        [
            (CategoricalLabel("city", ("a",)), parts["a"]),
            (CategoricalLabel("city", ("b",)), parts["b"]),
        ],
    )
    low = a_node.rows.select(NumericLabel("price", 0, 200).to_predicate())
    high = a_node.rows.select(NumericLabel("price", 200, 401).to_predicate())
    a_node.add_children(
        "price",
        [
            (NumericLabel("price", 0, 200), low),
            (NumericLabel("price", 200, 401), high),
        ],
    )
    return CategoryTree(root, technique="test")


class TestNode:
    def test_root_properties(self, tree):
        assert tree.root.is_root
        assert tree.root.label is None
        assert tree.root.level == 0
        assert tree.root.display() == "ALL"
        assert tree.root.categorizing_attribute is None

    def test_child_properties(self, tree):
        a_node = tree.root.children[0]
        assert a_node.level == 1
        assert a_node.categorizing_attribute == "city"
        assert a_node.child_attribute == "price"
        assert not a_node.is_leaf

    def test_leaf(self, tree):
        b_node = tree.root.children[1]
        assert b_node.is_leaf
        assert b_node.child_attribute is None

    def test_tuple_counts(self, tree):
        assert tree.root.tuple_count == 4
        assert tree.root.children[0].tuple_count == 2

    def test_path_labels(self, tree):
        deep = tree.root.children[0].children[0]
        labels = deep.path_labels()
        assert [l.attribute for l in labels] == ["city", "price"]

    def test_add_children_twice_rejected(self, tree, table):
        with pytest.raises(ValueError, match="already has children"):
            tree.root.add_children("price", [])

    def test_add_children_wrong_attribute_rejected(self, table):
        root = CategoryNode(table.all_rows())
        with pytest.raises(ValueError, match="expected"):
            root.add_children(
                "city",
                [(NumericLabel("price", 0, 1), table.all_rows())],
            )

    def test_add_empty_category_rejected(self, table):
        root = CategoryNode(table.all_rows())
        empty = table.all_rows().select(CategoricalLabel("city", ("zzz",)).to_predicate())
        with pytest.raises(ValueError, match="empty category"):
            root.add_children("city", [(CategoricalLabel("city", ("zzz",)), empty)])

    def test_walk_preorder(self, tree):
        names = [n.display() for n in tree.root.walk()]
        assert names[0] == "ALL"
        assert names[1] == "city: a"


class TestTree:
    def test_root_must_be_root(self, tree):
        child = tree.root.children[0]
        with pytest.raises(ValueError):
            CategoryTree(child)

    def test_counts(self, tree):
        assert tree.result_size == 4
        assert tree.node_count() == 5
        assert tree.category_count() == 4
        assert tree.depth() == 2

    def test_leaves(self, tree):
        assert sum(1 for _ in tree.leaves()) == 3

    def test_level_attributes(self, tree):
        assert tree.level_attributes() == ["city", "price"]

    def test_max_leaf_size(self, tree):
        assert tree.max_leaf_size() == 2

    def test_find(self, tree):
        found = tree.find(lambda n: n.display() == "city: b")
        assert found is not None and found.tuple_count == 2

    def test_validate_passes(self, tree):
        tree.validate()


class TestValidation:
    def test_repeated_attribute_rejected(self, table):
        root = CategoryNode(table.all_rows())
        parts = table.all_rows().partition_by(lambda r: r["city"])
        children = root.add_children(
            "city",
            [
                (CategoricalLabel("city", ("a",)), parts["a"]),
                (CategoricalLabel("city", ("b",)), parts["b"]),
            ],
        )
        children[0].add_children(
            "city", [(CategoricalLabel("city", ("a",)), parts["a"])]
        )
        with pytest.raises(ValueError, match="repeats"):
            CategoryTree(root).validate()

    def test_mixed_attributes_in_level_rejected(self, table):
        root = CategoryNode(table.all_rows())
        parts = table.all_rows().partition_by(lambda r: r["city"])
        children = root.add_children(
            "city",
            [
                (CategoricalLabel("city", ("a",)), parts["a"]),
                (CategoricalLabel("city", ("b",)), parts["b"]),
            ],
        )
        children[0].add_children(
            "price", [(NumericLabel("price", 0, 1000), parts["a"])]
        )
        children[1].child_attribute = "zzz"  # simulate a corrupted tree
        children[1].children = [
            CategoryNode(parts["b"], CategoricalLabel("zzz", ("x",)), children[1])
        ]
        with pytest.raises(ValueError, match="multiple categorizing attributes"):
            CategoryTree(root).validate()

    def test_tuple_violating_label_rejected(self, table):
        root = CategoryNode(table.all_rows())
        # Put ALL tuples (including city=b) under the city=a label.
        root.add_children(
            "city", [(CategoricalLabel("city", ("a",)), table.all_rows())]
        )
        with pytest.raises(ValueError, match="violates label"):
            CategoryTree(root).validate()

    def test_overlapping_siblings_rejected(self, table):
        root = CategoryNode(table.all_rows())
        parts = table.all_rows().partition_by(lambda r: r["city"])
        root.add_children(
            "city",
            [
                (CategoricalLabel("city", ("a", "b")), table.all_rows()),
                (CategoricalLabel("city", ("b",)), parts["b"]),
            ],
        )
        with pytest.raises(ValueError, match="overlaps a sibling"):
            CategoryTree(root).validate()
