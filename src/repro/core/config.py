"""Configuration for the categorizer.

Collects every tunable the paper names, with the paper's values as
defaults:

* ``M`` — maximum tuples per un-partitioned category; "We choose M=20 in
  our user study" (Section 5.2).
* ``x`` — attribute-elimination threshold; "if we use x=0.4, only 6
  attributes ... are retained" (Section 5.1.1).
* ``K`` — cost of examining a category label relative to a data tuple
  (Equation 1).  The paper keeps it symbolic; default 1.0.
* ``m`` — bucket count for numeric partitioning, "specified by the system
  designer" (Section 5.1.3); default 5, or automatic when
  ``auto_bucket_count`` is set ("the goodness metric may be used as a
  basis for automatically determining m").
* ``frac`` — expected fraction of a tuple set scanned before the first
  relevant tuple (Equation 2); the paper keeps it symbolic; default 0.5
  (uniformly-placed single relevant tuple).
* separation intervals — the splitpoint grid spacing per numeric
  attribute; "5000, 100 and 5" for price, square footage and year built
  (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping


#: The paper's separation intervals for the ListProperty numeric attributes,
#: extended with natural grids for the two attributes it does not list.
LIST_PROPERTY_SEPARATION_INTERVALS: Mapping[str, float] = {
    "price": 5_000.0,
    "squarefootage": 100.0,
    "yearbuilt": 5.0,
    "bedroomcount": 1.0,
    "bathcount": 0.5,
}

#: The six attributes x = 0.4 retains on the paper's workload
#: (Section 5.1.1) — also the No-Cost baseline's predefined attribute set.
PAPER_RETAINED_ATTRIBUTES: tuple[str, ...] = (
    "neighborhood",
    "propertytype",
    "bedroomcount",
    "price",
    "yearbuilt",
    "squarefootage",
)


@dataclass(frozen=True)
class CategorizerConfig:
    """All categorizer tunables, immutable, with paper defaults.

    Attributes:
        max_tuples_per_category: ``M`` — a node is partitioned iff it holds
            more than this many tuples.
        label_cost: ``K`` — relative cost of examining one category label.
        elimination_threshold: ``x`` — attributes with NAttr(A)/N below this
            are never considered as categorizing attributes.
        bucket_count: ``m`` — number of numeric buckets per partitioning.
        auto_bucket_count: when True, ``m`` is chosen per partitioning from
            the goodness distribution instead of taken from ``bucket_count``.
        max_auto_buckets: upper bound on automatically chosen ``m``.
        frac: expected fraction of a tuple set scanned before the first
            relevant tuple, for Equation (2).
        min_bucket_tuples: a splitpoint is "unnecessary" (Section 5.1.3 /
            5.2) if a bucket it creates would hold fewer than this many of
            the node's tuples.
        include_missing_category: when True, partitioners append an
            "attribute: unknown" category holding the NULL-valued tuples
            (which the paper's label grammar cannot place) so they stay
            reachable by drill-down.
        separation_intervals: per-attribute splitpoint grid spacing.
        max_levels: safety bound on tree depth (the attribute no-repeat rule
            already bounds it; this guards degenerate schemas).
    """

    max_tuples_per_category: int = 20
    label_cost: float = 1.0
    elimination_threshold: float = 0.4
    bucket_count: int = 5
    auto_bucket_count: bool = False
    max_auto_buckets: int = 12
    frac: float = 0.5
    min_bucket_tuples: int = 1
    include_missing_category: bool = False
    separation_intervals: Mapping[str, float] = field(
        default_factory=lambda: dict(LIST_PROPERTY_SEPARATION_INTERVALS)
    )
    max_levels: int = 16

    def __post_init__(self) -> None:
        if self.max_tuples_per_category < 1:
            raise ValueError(f"M must be >= 1, got {self.max_tuples_per_category}")
        if self.label_cost <= 0:
            raise ValueError(f"K must be positive, got {self.label_cost}")
        if not 0.0 <= self.elimination_threshold <= 1.0:
            raise ValueError(
                f"x must be in [0, 1], got {self.elimination_threshold}"
            )
        if self.bucket_count < 2:
            raise ValueError(f"m must be >= 2, got {self.bucket_count}")
        if not 0.0 <= self.frac <= 1.0:
            raise ValueError(f"frac must be in [0, 1], got {self.frac}")
        if self.min_bucket_tuples < 1:
            raise ValueError(
                f"min_bucket_tuples must be >= 1, got {self.min_bucket_tuples}"
            )
        if self.max_levels < 1:
            raise ValueError(f"max_levels must be >= 1, got {self.max_levels}")

    def separation_interval(self, attribute: str) -> float:
        """Grid spacing for ``attribute`` (1.0 when unconfigured)."""
        return float(self.separation_intervals.get(attribute, 1.0))

    def with_overrides(self, **changes) -> "CategorizerConfig":
        """Return a copy with the given fields replaced (ablation helper)."""
        return replace(self, **changes)


#: The configuration used throughout the paper's experiments.
PAPER_CONFIG = CategorizerConfig()
