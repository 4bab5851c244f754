"""The category tree: nodes, structure invariants, traversal (Section 3.1).

A :class:`CategoryTree` is the paper's "valid hierarchical categorization
T" — a recursive partitioning of the result set R where each level uses one
categorizing attribute, each node carries a label and a tuple-set, and
sibling order is semantically meaningful (the user reads labels top-down).

Nodes reference their tuples as :class:`~repro.relational.table.RowSet`
views over the shared result table, never copies of tuple data.  A tree
the categorizer builds is flat: one
:class:`~repro.relational.table.Permutation` of the result's positions
(4 bytes each), with every node's row set a
:class:`~repro.relational.table.RowSlice` of it, so the whole tree keeps
O(|R|) positions however deep it is.  Leaves share one empty ``children``
tuple.  Hand-built and deserialized trees attach any row sets.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.core.labels import CategoryLabel
from repro.relational.query import SelectQuery
from repro.relational.table import RowSet


class CategoryNode:
    """One category C: a label, a tuple-set, and an ordered child list.

    The root has ``label is None`` (the implicit "ALL" node of Figure 1).
    ``child_attribute`` is the paper's *subcategorizing attribute* SA(C):
    the attribute whose values partition this node's children.  It is None
    exactly when the node is a leaf.
    """

    __slots__ = ("label", "rows", "parent", "children", "child_attribute")

    def __init__(
        self,
        rows: RowSet,
        label: CategoryLabel | None = None,
        parent: "CategoryNode | None" = None,
    ) -> None:
        self.label = label
        self.rows = rows
        self.parent = parent
        self.children: Sequence[CategoryNode] = ()
        self.child_attribute: str | None = None

    # -- structure -----------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """True if this node has no subcategories (SHOWTUPLES is forced)."""
        return not self.children

    @property
    def is_root(self) -> bool:
        """True for the ALL node."""
        return self.parent is None

    @property
    def tuple_count(self) -> int:
        """``|tset(C)|``."""
        return len(self.rows)

    @property
    def level(self) -> int:
        """Depth of this node; the root is level 0."""
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def categorizing_attribute(self) -> str | None:
        """CA(C): the attribute this node's own label constrains."""
        return self.label.attribute if self.label is not None else None

    def add_children(
        self, attribute: str, partitions: Sequence[tuple[CategoryLabel, RowSet]]
    ) -> list["CategoryNode"]:
        """Attach ordered subcategories partitioned on ``attribute``.

        The order of ``partitions`` is preserved — it is the presentation
        order the cost model and the exploration models read.

        Raises:
            ValueError: if the node already has children, a label is on the
                wrong attribute, or a partition is empty (the algorithms
                remove empty categories before attaching).
        """
        if self.children:
            raise ValueError("node already has children")
        for label, rows in partitions:
            if label.attribute != attribute:
                raise ValueError(
                    f"label {label.display()!r} is on {label.attribute!r}, "
                    f"expected {attribute!r}"
                )
            if not rows:
                raise ValueError(f"empty category {label.display()!r}")
        self.child_attribute = attribute
        self.children = children = [
            CategoryNode(rows=rows, label=label, parent=self)
            for label, rows in partitions
        ]
        return children

    # -- paths and traversal ---------------------------------------------------

    def path_labels(self) -> list[CategoryLabel]:
        """Labels on the path root → this node (the full path predicate)."""
        labels: list[CategoryLabel] = []
        node = self
        while node is not None and node.label is not None:
            labels.append(node.label)
            node = node.parent  # type: ignore[assignment]
        labels.reverse()
        return labels

    def walk(self) -> Iterator["CategoryNode"]:
        """Yield this node and all descendants, pre-order, siblings in order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def display(self) -> str:
        """The node's label text ('ALL' for the root)."""
        return self.label.display() if self.label is not None else "ALL"

    def __repr__(self) -> str:
        return (
            f"CategoryNode({self.display()!r}, tuples={self.tuple_count}, "
            f"children={len(self.children)})"
        )


class CategoryTree:
    """A complete categorization of one query's result set."""

    def __init__(
        self,
        root: CategoryNode,
        query: SelectQuery | None = None,
        technique: str = "unspecified",
    ) -> None:
        if not root.is_root:
            raise ValueError("tree root must have no parent")
        self.root = root
        self.query = query
        self.technique = technique
        #: Set by ``categorize(collect_trace=True)`` — the per-level
        #: decision record (see :mod:`repro.core.trace`); None otherwise.
        self.decision_trace = None
        #: True when a ``categorize(checkpoint=...)`` budget stopped the
        #: build early: the tree holds the levels attached so far.
        self.truncated = False

    # -- global views -----------------------------------------------------------

    def nodes(self) -> Iterator[CategoryNode]:
        """All nodes, pre-order."""
        return self.root.walk()

    def categories(self) -> Iterator[CategoryNode]:
        """All non-root nodes (the actual categories)."""
        for node in self.nodes():
            if not node.is_root:
                yield node

    def leaves(self) -> Iterator[CategoryNode]:
        """All leaf nodes."""
        return (node for node in self.nodes() if node.is_leaf)

    @property
    def result_size(self) -> int:
        """``|R|``: the size of the categorized result set."""
        return self.root.tuple_count

    def node_count(self) -> int:
        """Total number of nodes, including the root."""
        return sum(1 for _ in self.nodes())

    def category_count(self) -> int:
        """Total number of categories (labels a user could examine)."""
        return self.node_count() - 1

    def depth(self) -> int:
        """Number of levels below the root."""
        return max((node.level for node in self.nodes()), default=0)

    def level_attributes(self) -> list[str]:
        """The categorizing attribute of each level, root-down.

        Valid categorizations use one attribute per level (Section 3.1);
        :meth:`validate` enforces this, and this accessor reports it.
        """
        attributes: list[str] = []
        frontier = [self.root]
        while frontier:
            used = {n.child_attribute for n in frontier if n.child_attribute}
            if not used:
                break
            if len(used) > 1:
                raise ValueError(
                    f"level uses multiple categorizing attributes: {sorted(used)}"
                )
            attributes.append(next(iter(used)))
            frontier = [c for n in frontier for c in n.children]
        return attributes

    # -- invariants ---------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant of Section 3.1.

        * children partition a subset of the parent's tuples disjointly;
        * every tuple under a child satisfies the child's label;
        * all nodes at one level share a categorizing attribute;
        * no attribute repeats across levels.

        Raises:
            ValueError: describing the first violated invariant.  Intended
            for tests and for validating externally constructed trees; the
            built-in algorithms construct valid trees by construction.
        """
        self.level_attributes()  # raises on mixed-attribute levels
        attributes = self.level_attributes()
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"categorizing attribute repeats: {attributes}")
        for node in self.nodes():
            self._validate_children(node)

    @staticmethod
    def _validate_children(node: CategoryNode) -> None:
        if not node.children:
            return
        seen: set[int] = set()
        parent_indices = set(node.rows.indices)
        for child in node.children:
            child_indices = set(child.rows.indices)
            if not child_indices <= parent_indices:
                raise ValueError(
                    f"child {child.display()!r} contains tuples outside its parent"
                )
            if child_indices & seen:
                raise ValueError(
                    f"child {child.display()!r} overlaps a sibling"
                )
            seen |= child_indices
            for row in child.rows:
                if not child.label.matches(row):
                    raise ValueError(
                        f"tuple {row.as_dict()} violates label "
                        f"{child.label.display()!r}"
                    )

    # -- queries over the structure ---------------------------------------------

    def find(self, predicate: Callable[[CategoryNode], bool]) -> CategoryNode | None:
        """Return the first node (pre-order) satisfying ``predicate``."""
        for node in self.nodes():
            if predicate(node):
                return node
        return None

    def max_leaf_size(self) -> int:
        """Largest leaf tuple-set — ≤ M when enough attributes existed."""
        return max((leaf.tuple_count for leaf in self.leaves()), default=0)

    def __repr__(self) -> str:
        return (
            f"CategoryTree(technique={self.technique!r}, "
            f"categories={self.category_count()}, depth={self.depth()}, "
            f"result_size={self.result_size})"
        )
