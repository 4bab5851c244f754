"""SPJ query representation and execution.

The paper assumes the query ``Q`` whose result set ``R`` is categorized is a
select-project-join query, equivalently a selection over a wide (star-joined)
table (Section 3.1 and footnote 6).  :class:`SelectQuery` models exactly
that: a table name, an optional projection, and a conjunctive selection
predicate.  The categorizer additionally reads the query's per-attribute
conditions to seed numeric partitioning ranges (Section 5.1.3: "if the user
query Q contains a selection condition on A, vmin and vmax can be obtained
directly from Q").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.relational.expressions import (
    Conjunction,
    InPredicate,
    Predicate,
    RangePredicate,
    TruePredicate,
    normalize,
)
from repro.relational.table import RowSet, Table


@dataclass(frozen=True)
class SelectQuery:
    """A select(-project) query over a single (possibly pre-joined) table.

    Attributes:
        table_name: the relation queried.
        predicate: conjunctive WHERE clause; defaults to TRUE.
        projection: attribute names to keep, or None for ``SELECT *``.
    """

    table_name: str
    predicate: Predicate = field(default_factory=TruePredicate)
    projection: tuple[str, ...] | None = None

    def normalized(self) -> "SelectQuery":
        """Return an equivalent query with a canonical per-attribute predicate."""
        canonical = normalize(self.predicate)
        query = SelectQuery(
            table_name=self.table_name,
            predicate=canonical,
            projection=self.projection,
        )
        # A canonical predicate is its own normal form, so both queries
        # share one split instead of normalizing it again on first use.
        split = _split_canonical(canonical)
        self.__dict__.setdefault("_conditions", split)
        query.__dict__["_conditions"] = split
        return query

    @cached_property
    def _conditions(self) -> dict[str, Predicate]:
        """The canonical conditions, computed once per query (do not mutate)."""
        return _split_canonical(normalize(self.predicate))

    def conditions(self) -> dict[str, Predicate]:
        """Return the canonical per-attribute selection conditions.

        The result maps each constrained attribute to its single In/Range
        predicate — the form Sections 4.2 and 5.1 consume.  Each call
        returns a fresh dict the caller may keep or change.
        """
        return dict(self._conditions)

    def condition_on(self, attribute: str) -> Predicate | None:
        """Return the canonical condition on ``attribute``, or None."""
        return self._conditions.get(attribute)

    def range_on(self, attribute: str) -> tuple[float, float] | None:
        """Return (vmin, vmax) for a numeric condition on ``attribute``.

        Returns None when the query does not constrain the attribute with a
        range.  One-sided ranges keep their infinite bound; the caller
        (numeric partitioning) replaces infinities with data-derived bounds.
        """
        condition = self.condition_on(attribute)
        if isinstance(condition, RangePredicate):
            return condition.low, condition.high
        return None

    def values_on(self, attribute: str) -> frozenset[Any] | None:
        """Return the IN-set for a categorical condition, or None."""
        condition = self.condition_on(attribute)
        if isinstance(condition, InPredicate):
            return condition.values
        return None

    def execute(self, table: Table) -> RowSet:
        """Run this query against ``table`` and return the result view.

        Projection does not physically drop columns (the result is a view);
        it is recorded so renderers can honour it.

        Raises:
            ValueError: if the table's name does not match, or the predicate
                references unknown attributes.
        """
        if table.schema.name != self.table_name:
            raise ValueError(
                f"query targets table {self.table_name!r} but got "
                f"{table.schema.name!r}"
            )
        unknown = self.predicate.attributes() - set(table.schema.names())
        if unknown:
            raise ValueError(
                f"query references unknown attributes {sorted(unknown)}"
            )
        if self.projection is not None:
            for name in self.projection:
                table.schema.attribute(name)
        return table.select(self.predicate)

    def __str__(self) -> str:
        columns = "*" if self.projection is None else ", ".join(self.projection)
        where = (
            ""
            if isinstance(self.predicate, TruePredicate)
            else f" WHERE {self.predicate}"
        )
        return f"SELECT {columns} FROM {self.table_name}{where}"


def _split_canonical(canonical: Predicate) -> dict[str, Predicate]:
    """Map each attribute of a normalized predicate to its one condition."""
    if isinstance(canonical, TruePredicate):
        return {}
    parts = list(canonical) if isinstance(canonical, Conjunction) else [canonical]
    return {next(iter(part.attributes())): part for part in parts}
