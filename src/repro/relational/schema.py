"""Schemas for relations: attribute declarations and table schemas.

A :class:`TableSchema` is the static description of a relation — the ordered
list of :class:`Attribute` definitions.  The categorizer consults the schema
to learn each attribute's :class:`~repro.relational.types.AttributeKind`
(categorical vs numeric), which drives the choice of partitioning strategy
(paper Sections 5.1.2 and 5.1.3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.relational.types import AttributeKind, DataType


@dataclass(frozen=True)
class Attribute:
    """A single attribute (column) of a relation.

    Attributes:
        name: the attribute name, unique within a schema.
        data_type: physical storage type.
        kind: logical categorization role.  Defaults to NUMERIC for numeric
            data types and CATEGORICAL otherwise, which matches the common
            case; pass the kind explicitly for e.g. categorical integers
            (zip codes) or orderable text.
        nullable: whether NULLs are permitted.
    """

    name: str
    data_type: DataType
    kind: AttributeKind | None = None
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"invalid attribute name {self.name!r}")
        if self.kind is None:
            inferred = (
                AttributeKind.NUMERIC
                if self.data_type.is_numeric()
                else AttributeKind.CATEGORICAL
            )
            object.__setattr__(self, "kind", inferred)

    @property
    def is_numeric(self) -> bool:
        """True if this attribute is partitioned into range buckets."""
        return self.kind is AttributeKind.NUMERIC

    @property
    def is_categorical(self) -> bool:
        """True if this attribute is partitioned into single-value categories."""
        return self.kind is AttributeKind.CATEGORICAL

    def coerce(self, value: Any) -> Any:
        """Validate and convert ``value`` for storage in this attribute."""
        if value is None:
            if not self.nullable:
                raise ValueError(f"attribute {self.name!r} is not nullable")
            return None
        return self.data_type.coerce(value)


@dataclass(frozen=True)
class TableSchema:
    """Ordered collection of attributes describing a relation.

    Provides positional and by-name access.  Immutable: deriving a schema
    (e.g. a projection) creates a new instance.
    """

    name: str
    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        names = [attr.name for attr in self.attributes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate attribute names: {sorted(duplicates)}")
        object.__setattr__(
            self, "_by_name", {attr.name: i for i, attr in enumerate(self.attributes)}
        )

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name  # type: ignore[attr-defined]

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``.

        Raises:
            KeyError: if no such attribute exists, with a message listing
                the available names (the usual failure is a typo in a
                workload query or a config file).
        """
        try:
            return self.attributes[self._by_name[name]]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(
                f"no attribute {name!r} in table {self.name!r}; "
                f"available: {sorted(self.names())}"
            ) from None

    def index_of(self, name: str) -> int:
        """Return the column position of ``name``."""
        self.attribute(name)  # raise a helpful KeyError if absent
        return self._by_name[name]  # type: ignore[attr-defined]

    def names(self) -> tuple[str, ...]:
        """Return attribute names in declaration order."""
        return tuple(attr.name for attr in self.attributes)

    def project(self, names: Sequence[str]) -> "TableSchema":
        """Return a new schema keeping only ``names``, in the given order."""
        return TableSchema(
            name=self.name,
            attributes=tuple(self.attribute(n) for n in names),
        )

    def categorical_attributes(self) -> tuple[Attribute, ...]:
        """All attributes partitioned as single-value categories."""
        return tuple(a for a in self.attributes if a.is_categorical)

    def numeric_attributes(self) -> tuple[Attribute, ...]:
        """All attributes partitioned as range buckets."""
        return tuple(a for a in self.attributes if a.is_numeric)


def read_schema_json(path: str | Path) -> TableSchema:
    """Read a schema file: ``{"name", "attributes": [{name, type, kind}]}``.

    ``type`` is a :class:`DataType` value (``"int"``, ``"text"``, ...);
    ``kind`` (``"categorical"`` / ``"numeric"``) may be omitted to take
    the data type's default::

        {"name": "Laptops",
         "attributes": [
            {"name": "brand", "type": "text", "kind": "categorical"},
            {"name": "price", "type": "int", "kind": "numeric"}]}
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return TableSchema(
        payload["name"],
        tuple(
            Attribute(
                spec["name"],
                DataType(spec["type"]),
                AttributeKind(spec["kind"]) if spec.get("kind") else None,
            )
            for spec in payload["attributes"]
        ),
    )
