"""Declarative dataset descriptors: how one relation gets built.

A :class:`DatasetDescriptor` is the catalog's unit of configuration — a
plain declarative record (name, CSV source *or* built-in generator,
workload, schema, backend, namespace) in the style of wesdash's
``DATASET`` dicts.  Descriptors arrive three ways and converge on the
same object:

* programmatically, ``DatasetDescriptor(name=..., generator="movies")``;
* from a CLI flag, ``--dataset Movies=@movies,rows=8000`` via
  :func:`parse_dataset_arg`;
* from a TOML catalog file, ``--catalog catalog.toml`` via
  :func:`load_catalog_file`::

      default = "ListProperty"

      [datasets.ListProperty]
      source = "homes.csv"
      workload = "workload.sql"
      backend = "columnar"

      [datasets.Movies]
      generator = "movies"
      rows = 8000

A descriptor only *describes*; :meth:`DatasetDescriptor.build` does the
expensive work (CSV parse or generation, workload preprocessing) and
:func:`repro.catalog.catalog.open_relation` decides whether a warm
snapshot can skip it entirely.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.config import PAPER_CONFIG
from repro.data.homes import generate_homes, list_property_schema
from repro.data.movies import (
    MOVIE_SEPARATION_INTERVALS,
    generate_movie_workload,
    generate_movies,
    movie_schema,
)
from repro.relational.backends import BACKEND_NAMES, DEFAULT_BACKEND
from repro.relational.csvio import read_csv
from repro.relational.schema import TableSchema, read_schema_json
from repro.relational.table import Table
from repro.workload.generator import WorkloadGeneratorConfig, generate_workload
from repro.workload.log import Workload
from repro.workload.preprocess import WorkloadStatistics, preprocess_workload


@dataclass(frozen=True)
class _Generator:
    """One built-in dataset family: schema + table + workload factories."""

    schema: Callable[[], TableSchema]
    table: Callable[..., Table]
    workload: Callable[[int, int], Workload]
    separation_intervals: Mapping[str, float]
    default_rows: int
    default_seed: int
    default_queries: int
    default_workload_seed: int


def _homes_workload(queries: int, seed: int) -> Workload:
    return generate_workload(
        WorkloadGeneratorConfig(query_count=queries, seed=seed)
    )


#: The built-in generators a descriptor may name instead of a CSV source.
GENERATORS: dict[str, _Generator] = {
    "homes": _Generator(
        schema=list_property_schema,
        table=generate_homes,
        workload=_homes_workload,
        separation_intervals=PAPER_CONFIG.separation_intervals,
        default_rows=20_000,
        default_seed=7,
        default_queries=8_000,
        default_workload_seed=41,
    ),
    "movies": _Generator(
        schema=movie_schema,
        table=generate_movies,
        workload=generate_movie_workload,
        separation_intervals=MOVIE_SEPARATION_INTERVALS,
        default_rows=20_000,
        default_seed=3,
        default_queries=8_000,
        default_workload_seed=5,
    ),
}

#: Built-in schemas resolvable by relation name (CSV datasets without an
#: explicit ``schema=`` file).
BUILTIN_SCHEMAS: dict[str, Callable[[], TableSchema]] = {
    "ListProperty": list_property_schema,
    "Movies": movie_schema,
}

_SPEC_KEYS = frozenset(
    {
        "source",
        "generator",
        "workload",
        "schema",
        "rows",
        "seed",
        "workload_queries",
        "workload_seed",
        "backend",
        "technique",
        "lenient_csv",
        "namespace",
        "separation_intervals",
    }
)

@dataclass(frozen=True)
class DatasetDescriptor:
    """One relation, declaratively.

    Exactly one of ``source`` (a CSV path) or ``generator`` (a key into
    :data:`GENERATORS`) must be set.  CSV datasets need a ``workload``
    SQL log and a resolvable schema (built-in by name, or a ``schema``
    JSON path); generated datasets default both from the generator.

    Attributes:
        name: the relation name — must match the schema's table name;
            it is what requests address via ``table=``.
        namespace: cache/telemetry key prefix; defaults to ``name``.
        separation_intervals: per-attribute splitpoint grid spacing for
            workload preprocessing; None uses the generator's (or the
            paper's, for ListProperty CSVs) defaults.
    """

    name: str
    source: Path | None = None
    generator: str | None = None
    workload: Path | None = None
    schema: Path | None = None
    rows: int | None = None
    seed: int | None = None
    workload_queries: int | None = None
    workload_seed: int | None = None
    backend: str = DEFAULT_BACKEND
    technique: str = "cost-based"
    lenient_csv: bool = False
    namespace: str | None = None
    separation_intervals: Mapping[str, float] | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("dataset needs a non-empty name")
        if (self.source is None) == (self.generator is None):
            raise ValueError(
                f"dataset {self.name!r}: set exactly one of source= "
                "(a CSV path) or generator= "
                f"(one of {sorted(GENERATORS)})"
            )
        if self.generator is not None and self.generator not in GENERATORS:
            raise ValueError(
                f"dataset {self.name!r}: unknown generator "
                f"{self.generator!r}; choose from {sorted(GENERATORS)}"
            )
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"dataset {self.name!r}: unknown backend {self.backend!r}; "
                f"choose from {BACKEND_NAMES}"
            )
        if self.source is not None and self.workload is None:
            raise ValueError(
                f"dataset {self.name!r}: CSV datasets need workload= "
                "(an SQL log file)"
            )
        if self.namespace is None:
            object.__setattr__(self, "namespace", self.name)

    # -- building ------------------------------------------------------------

    def load_schema(self) -> TableSchema:
        """Resolve the relation schema (file > built-in > generator)."""
        if self.schema is not None:
            schema = read_schema_json(self.schema)
        elif self.generator is not None:
            schema = GENERATORS[self.generator].schema()
        elif self.name in BUILTIN_SCHEMAS:
            schema = BUILTIN_SCHEMAS[self.name]()
        else:
            raise ValueError(
                f"dataset {self.name!r}: no schema= given and no built-in "
                f"schema matches (built-ins: {sorted(BUILTIN_SCHEMAS)})"
            )
        if schema.name != self.name:
            raise ValueError(
                f"dataset {self.name!r}: schema declares table "
                f"{schema.name!r} — descriptor names must match the schema"
            )
        return schema

    def intervals(self) -> Mapping[str, float] | None:
        """Separation intervals for workload preprocessing."""
        if self.separation_intervals is not None:
            return self.separation_intervals
        if self.generator is not None:
            return GENERATORS[self.generator].separation_intervals
        if self.name == "ListProperty":
            return PAPER_CONFIG.separation_intervals
        return None

    def load_table(self, schema: TableSchema | None = None) -> Table:
        """Build the relation (CSV parse or deterministic generation)."""
        schema = schema or self.load_schema()
        if self.source is not None:
            return read_csv(
                schema,
                self.source,
                strict=not self.lenient_csv,
                backend=self.backend,
            )
        generator = GENERATORS[self.generator]
        return generator.table(
            rows=self.rows if self.rows is not None else generator.default_rows,
            seed=self.seed if self.seed is not None else generator.default_seed,
            backend=self.backend,
        )

    def load_workload(self) -> Workload:
        if self.workload is not None:
            return Workload.load(self.workload)
        generator = GENERATORS[self.generator]
        return generator.workload(
            self.workload_queries
            if self.workload_queries is not None
            else generator.default_queries,
            self.workload_seed
            if self.workload_seed is not None
            else generator.default_workload_seed,
        )

    def build(self) -> tuple[Table, WorkloadStatistics]:
        """The cold-boot path: table + preprocessed seed statistics."""
        schema = self.load_schema()
        table = self.load_table(schema)
        statistics = preprocess_workload(
            self.load_workload(), schema, self.intervals()
        )
        return table, statistics

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_dict(cls, name: str, spec: Mapping[str, Any]) -> DatasetDescriptor:
        """Build a descriptor from a declarative dict (TOML table)."""
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"dataset {name!r}: unknown key(s) {sorted(unknown)}; "
                f"valid keys: {sorted(_SPEC_KEYS)}"
            )
        kwargs: dict[str, Any] = dict(spec)
        for key in ("source", "workload", "schema"):
            if kwargs.get(key) is not None:
                kwargs[key] = Path(kwargs[key])
        for key in ("rows", "seed", "workload_queries", "workload_seed"):
            if kwargs.get(key) is not None:
                kwargs[key] = int(kwargs[key])
        if "lenient_csv" in kwargs:
            kwargs["lenient_csv"] = _as_bool(name, kwargs["lenient_csv"])
        intervals = kwargs.get("separation_intervals")
        if intervals is not None:
            kwargs["separation_intervals"] = {
                str(attr): float(value) for attr, value in dict(intervals).items()
            }
        return cls(name=name, **kwargs)


def _as_bool(name: str, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"dataset {name!r}: not a boolean: {value!r}")


def parse_dataset_arg(text: str) -> DatasetDescriptor:
    """Parse one ``--dataset NAME=SPEC`` flag.

    ``SPEC`` is a CSV path or ``@generator``, optionally followed by
    comma-separated ``key=value`` options (the :data:`_SPEC_KEYS` set)::

        --dataset ListProperty=homes.csv,workload=workload.sql
        --dataset Movies=@movies,rows=8000,seed=3
    """
    name, sep, rest = text.partition("=")
    name = name.strip()
    if not sep or not name or not rest:
        raise ValueError(
            f"--dataset wants NAME=SPEC (a CSV path or @generator), got {text!r}"
        )
    head, *options = rest.split(",")
    spec: dict[str, Any] = {}
    head = head.strip()
    if head.startswith("@"):
        spec["generator"] = head[1:]
    else:
        spec["source"] = head
    for option in options:
        key, sep, value = option.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(
                f"--dataset {name}: options are key=value, got {option!r}"
            )
        if key in spec:
            raise ValueError(f"--dataset {name}: duplicate option {key!r}")
        spec[key] = value
    return DatasetDescriptor.from_dict(name, spec)


def load_catalog_file(
    path: Path,
) -> tuple[list[DatasetDescriptor], str | None]:
    """Load a ``catalog.toml``: descriptors plus the default table name.

    Relative ``source``/``workload``/``schema`` paths are resolved
    against the TOML file's directory, so a catalog file travels with
    its data.
    """
    path = Path(path)
    with path.open("rb") as handle:
        document = tomllib.load(handle)
    datasets = document.get("datasets")
    if not isinstance(datasets, dict) or not datasets:
        raise ValueError(
            f"{path}: needs at least one [datasets.<Name>] table"
        )
    base = path.parent
    descriptors = []
    for name, spec in datasets.items():
        if not isinstance(spec, dict):
            raise ValueError(f"{path}: [datasets.{name}] must be a table")
        descriptor = DatasetDescriptor.from_dict(name, spec)
        updates = {
            key: base / getattr(descriptor, key)
            for key in ("source", "workload", "schema")
            if getattr(descriptor, key) is not None
            and not getattr(descriptor, key).is_absolute()
        }
        if updates:
            descriptor = replace(descriptor, **updates)
        descriptors.append(descriptor)
    default = document.get("default")
    if default is not None:
        if default not in datasets:
            raise ValueError(
                f"{path}: default = {default!r} names no [datasets.*] table"
            )
        default = str(default)
    return descriptors, default
