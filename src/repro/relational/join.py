"""Star-schema joins: materializing the wide table the paper assumes.

Footnote 6: "We assume that the workload queries are SPJ queries on a
database with star schema, i.e., they are equivalent to select queries on
the wide table obtained by joining the fact table with the dimension
tables."  Deployments store normalized data; this module materializes the
wide table once so everything downstream (query execution, preprocessing,
categorization) operates on the paper's canonical form.

Only the star shape is supported — one fact table, each dimension joined
by a single equality key — because that is exactly the class the paper's
assumption covers; a general join engine would be scope creep with no
consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table


@dataclass(frozen=True)
class DimensionJoin:
    """One dimension of a star schema.

    Attributes:
        table: the dimension table.
        fact_key: foreign-key attribute on the fact table.
        dimension_key: primary-key attribute on the dimension table; must
            be unique within it.
    """

    table: Table
    fact_key: str
    dimension_key: str


def join_star(
    fact: Table,
    dimensions: list[DimensionJoin],
    name: str | None = None,
    drop_keys: bool = True,
) -> Table:
    """Materialize the wide table of a star schema via hash joins.

    The result carries every fact attribute followed by every non-key
    dimension attribute, in declaration order.  Join semantics are the
    paper's implicit inner-equality join, with NULL foreign keys producing
    NULL dimension attributes (left-outer behaviour) so that incomplete
    facts are not silently dropped from the result set being categorized.

    Args:
        fact: the fact table.
        dimensions: the dimensions to fold in.
        name: name of the wide table (default ``<fact>_wide``).
        drop_keys: drop the foreign-key columns from the output (they are
            surrogate identifiers, meaningless as categorizing attributes).

    Raises:
        ValueError: on unknown key attributes, duplicate dimension keys,
            name collisions between fact and dimension attributes, or a
            foreign key value with no dimension row.
    """
    indexes = [_build_index(dimension) for dimension in dimensions]
    attributes = _wide_schema_attributes(fact, dimensions, drop_keys)
    wide_schema = TableSchema(name or f"{fact.schema.name}_wide", tuple(attributes))

    dropped_keys = {d.fact_key for d in dimensions} if drop_keys else set()

    def wide_rows():
        for row in fact:
            output: dict[str, Any] = {
                attribute: row[attribute]
                for attribute in fact.schema.names()
                if attribute not in dropped_keys
            }
            for dimension, index in zip(dimensions, indexes):
                key = row[dimension.fact_key]
                if key is None:
                    continue  # NULL FK: dimension attributes stay NULL
                try:
                    dimension_row = index[key]
                except KeyError:
                    raise ValueError(
                        f"fact row {row.index}: no {dimension.table.schema.name!r} "
                        f"row with {dimension.dimension_key} = {key!r}"
                    ) from None
                for attribute in dimension.table.schema.names():
                    if attribute != dimension.dimension_key:
                        output[attribute] = dimension_row[attribute]
            yield output

    return Table.from_rows(wide_schema, wide_rows())


def _build_index(dimension: DimensionJoin):
    """Hash the dimension on its key, checking uniqueness."""
    dimension.table.schema.attribute(dimension.dimension_key)  # validate
    index: dict[Any, Any] = {}
    for row in dimension.table:
        key = row[dimension.dimension_key]
        if key is None:
            raise ValueError(
                f"dimension {dimension.table.schema.name!r} has a NULL key"
            )
        if key in index:
            raise ValueError(
                f"dimension {dimension.table.schema.name!r} has duplicate "
                f"key {key!r}"
            )
        index[key] = row
    return index


def _wide_schema_attributes(
    fact: Table, dimensions: list[DimensionJoin], drop_keys: bool
) -> list[Attribute]:
    dropped = {d.fact_key for d in dimensions} if drop_keys else set()
    for dimension in dimensions:
        fact.schema.attribute(dimension.fact_key)  # validate FK exists

    attributes: list[Attribute] = [
        attribute
        for attribute in fact.schema
        if attribute.name not in dropped
    ]
    seen = {attribute.name for attribute in attributes}
    for dimension in dimensions:
        for attribute in dimension.table.schema:
            if attribute.name == dimension.dimension_key:
                continue
            if attribute.name in seen:
                raise ValueError(
                    f"attribute {attribute.name!r} appears in both the fact "
                    f"table and dimension {dimension.table.schema.name!r}"
                )
            seen.add(attribute.name)
            # Dimension attributes are nullable in the wide table: a NULL
            # foreign key leaves them unset.
            attributes.append(
                Attribute(
                    attribute.name,
                    attribute.data_type,
                    attribute.kind,
                    nullable=True,
                )
            )
    return attributes
