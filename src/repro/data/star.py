"""Normalized (star-schema) form of the ListProperty dataset.

The paper's footnote 6 assumes the categorized relation is "the wide
table obtained by joining the fact table with the dimension tables".
This module provides the normalized starting point: a ``Listing`` fact
table holding per-home measures and a ``Location`` dimension keyed by a
surrogate id — so examples and tests can exercise the star-join pathway
(:func:`repro.relational.join.join_star`) and verify it reconstructs the
flat ``ListProperty`` relation exactly.
"""

from __future__ import annotations

from repro.relational.join import DimensionJoin, join_star
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import AttributeKind, DataType


def location_dimension_schema() -> TableSchema:
    """The Location dimension: one row per neighborhood."""
    return TableSchema(
        "Location",
        (
            Attribute("locationid", DataType.INT, AttributeKind.CATEGORICAL,
                      nullable=False),
            Attribute("neighborhood", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("city", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("state", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("zipcode", DataType.INT, AttributeKind.CATEGORICAL),
        ),
    )


def listing_fact_schema() -> TableSchema:
    """The Listing fact table: measures plus the location foreign key."""
    return TableSchema(
        "Listing",
        (
            Attribute("locationid", DataType.INT, AttributeKind.CATEGORICAL,
                      nullable=False),
            Attribute("price", DataType.INT, AttributeKind.NUMERIC),
            Attribute("bedroomcount", DataType.INT, AttributeKind.NUMERIC),
            Attribute("bathcount", DataType.FLOAT, AttributeKind.NUMERIC),
            Attribute("yearbuilt", DataType.INT, AttributeKind.NUMERIC),
            Attribute("propertytype", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("squarefootage", DataType.INT, AttributeKind.NUMERIC),
        ),
    )


def normalize_homes(wide: Table) -> tuple[Table, Table]:
    """Split a flat ListProperty table into (Listing fact, Location dimension).

    Locations are keyed by neighborhood (the dataset generator assigns one
    zipcode/city/state per neighborhood, so neighborhood determines the
    rest); surrogate ids are assigned in first-appearance order, making the
    decomposition deterministic.  Both output tables are bulk-loaded.
    """
    location_rows: list[dict] = []
    fact_rows: list[dict] = []
    ids_by_neighborhood: dict[str, int] = {}
    for row in wide:
        neighborhood = row["neighborhood"]
        location_id = ids_by_neighborhood.get(neighborhood)
        if location_id is None:
            location_id = len(ids_by_neighborhood) + 1
            ids_by_neighborhood[neighborhood] = location_id
            location_rows.append(
                {
                    "locationid": location_id,
                    "neighborhood": neighborhood,
                    "city": row["city"],
                    "state": row["state"],
                    "zipcode": row["zipcode"],
                }
            )
        fact_rows.append(
            {
                "locationid": location_id,
                "price": row["price"],
                "bedroomcount": row["bedroomcount"],
                "bathcount": row["bathcount"],
                "yearbuilt": row["yearbuilt"],
                "propertytype": row["propertytype"],
                "squarefootage": row["squarefootage"],
            }
        )
    fact = Table.from_rows(listing_fact_schema(), fact_rows)
    location = Table.from_rows(location_dimension_schema(), location_rows)
    return fact, location


def widen_star(fact: Table, location: Table, name: str = "ListProperty") -> Table:
    """Join the star back into the paper's wide ListProperty form."""
    return join_star(
        fact,
        [DimensionJoin(location, fact_key="locationid", dimension_key="locationid")],
        name=name,
    )
