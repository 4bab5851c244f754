"""Generator for the synthetic ``ListProperty`` relation.

The paper's dataset is "a single table called ListProperty ... 1.7 million
rows ... location (neighborhood, city, state, zipcode), price, bedroomcount,
bathcount, year-built, property-type ... and square-footage" (Section 6.1).
This module produces a schema-identical synthetic table at configurable
scale: listings are distributed over the geography of
:mod:`repro.data.geography` with correlated attribute values from
:mod:`repro.data.distributions`.

The generator is deterministic under a seed, so every experiment in the
benchmark suite is reproducible run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from repro.data.distributions import (
    sample_bathrooms,
    sample_bedrooms,
    sample_price,
    sample_property_type,
    sample_square_footage,
    sample_year_built,
    weighted_choice,
)
from repro.data.geography import ALL_REGIONS, Neighborhood, Region
from repro.relational.backends import DEFAULT_BACKEND
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import AttributeKind, DataType


def list_property_schema() -> TableSchema:
    """Return the schema of the synthetic ListProperty table.

    Attribute kinds follow the paper: neighborhood/city/state/zipcode/
    property-type are categorical; price/bedroomcount/bathcount/year-built/
    square-footage are numeric.  Zipcode is an INT but *categorical* — an
    example of why kind is declared, not inferred.
    """
    return TableSchema(
        name="ListProperty",
        attributes=(
            Attribute("neighborhood", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("city", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("state", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("zipcode", DataType.INT, AttributeKind.CATEGORICAL),
            Attribute("price", DataType.INT, AttributeKind.NUMERIC),
            Attribute("bedroomcount", DataType.INT, AttributeKind.NUMERIC),
            Attribute("bathcount", DataType.FLOAT, AttributeKind.NUMERIC),
            Attribute("yearbuilt", DataType.INT, AttributeKind.NUMERIC),
            Attribute("propertytype", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("squarefootage", DataType.INT, AttributeKind.NUMERIC),
        ),
    )


@dataclass(frozen=True)
class ListPropertyGenerator:
    """Deterministic generator for a synthetic ListProperty table.

    Attributes:
        rows: number of listings to generate.
        seed: PRNG seed; the same (rows, seed, regions) always yields an
            identical table.
        regions: the markets to draw from; defaults to the full geography.
        null_rates: per-attribute probability of a NULL value (listings
            missing year-built or square footage are common in real feeds).
            Defaults to no NULLs, matching the paper's "non-null
            attributes" statement; set rates to exercise the
            missing-category machinery.
    """

    rows: int = 50_000
    seed: int = 7
    regions: tuple[Region, ...] = ALL_REGIONS
    null_rates: Mapping[str, float] = field(default_factory=dict)
    backend: str = DEFAULT_BACKEND

    def generate(self) -> Table:
        """Build and return the table.

        Listings are allocated to regions proportionally to total city
        weight, then to neighborhoods by neighborhood weight, so market
        sizes are skewed the way real inventory is (Seattle ≫ Sammamish).
        The listings stream straight into :meth:`Table.from_rows` (one
        bulk column load) rather than a per-row ``insert`` loop.
        """
        if self.rows <= 0:
            raise ValueError(f"rows must be positive, got {self.rows}")
        rng = random.Random(self.seed)
        region_weights = [
            sum(city.weight for city in region.cities) for region in self.regions
        ]
        zipcodes = _ZipcodeAssigner(self.seed)

        def listings():
            for _ in range(self.rows):
                region = weighted_choice(rng, list(self.regions), region_weights)
                neighborhood = weighted_choice(
                    rng,
                    list(region.neighborhoods),
                    [n.weight for n in region.neighborhoods],
                )
                listing = self._generate_listing(rng, region, neighborhood, zipcodes)
                for attribute, rate in self.null_rates.items():
                    if rate > 0 and rng.random() < rate:
                        listing[attribute] = None
                yield listing

        return Table.from_rows(
            list_property_schema(), listings(), backend=self.backend
        )

    def _generate_listing(
        self,
        rng: random.Random,
        region: Region,
        neighborhood: Neighborhood,
        zipcodes: "_ZipcodeAssigner",
    ) -> dict:
        city = region.city(neighborhood.city)
        price = sample_price(rng, city.base_price, city.price_sigma, neighborhood.price_factor)
        property_type = sample_property_type(rng, city.condo_share)
        bedrooms = sample_bedrooms(rng, price, city.base_price, property_type)
        return {
            "neighborhood": neighborhood.name,
            "city": city.name,
            "state": city.state,
            "zipcode": zipcodes.zipcode_for(neighborhood.name),
            "price": price,
            "bedroomcount": bedrooms,
            "bathcount": sample_bathrooms(rng, bedrooms),
            "yearbuilt": sample_year_built(rng, city.median_year_built, property_type),
            "propertytype": property_type,
            "squarefootage": sample_square_footage(rng, bedrooms, property_type),
        }


class _ZipcodeAssigner:
    """Assigns each neighborhood a stable synthetic 5-digit zipcode."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed ^ 0x5A1D)
        self._assigned: dict[str, int] = {}
        self._used: set[int] = set()

    def zipcode_for(self, neighborhood_name: str) -> int:
        """Return the zipcode of a neighborhood, allocating on first use."""
        if neighborhood_name not in self._assigned:
            while True:
                candidate = self._rng.randint(10_000, 99_999)
                if candidate not in self._used:
                    break
            self._used.add(candidate)
            self._assigned[neighborhood_name] = candidate
        return self._assigned[neighborhood_name]


def generate_homes(
    rows: int = 50_000,
    seed: int = 7,
    backend: str = DEFAULT_BACKEND,
) -> Table:
    """Convenience wrapper: generate the default synthetic ListProperty table."""
    return ListPropertyGenerator(rows=rows, seed=seed, backend=backend).generate()
