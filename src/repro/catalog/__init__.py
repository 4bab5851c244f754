"""Multi-relation catalog: dataset registry + per-relation serving state.

The paper defines categorization per relation R with its own workload
statistics; this package lets one process serve many such relations:

* :mod:`~repro.catalog.descriptor` — :class:`DatasetDescriptor`, the
  declarative record of how one relation gets built (CSV source or
  built-in generator, workload, schema, namespace), plus the
  ``--dataset NAME=SPEC`` and ``catalog.toml`` parsers.
* :mod:`~repro.catalog.catalog` — :class:`Catalog`, the name → service
  registry with a default relation, a process-wide trace-id sequence,
  and per-relation durability (``<root>/<table>/`` journal + snapshot
  pair) via :func:`open_catalog` / :func:`persist_relation`.

The serving-layer bundle each catalog entry wraps is
:class:`repro.serving.relation.Relation` (re-exported here).  See
docs/catalog.md.
"""

from repro.catalog.catalog import (
    Catalog,
    open_catalog,
    open_relation,
    persist_relation,
)
from repro.catalog.descriptor import (
    BUILTIN_SCHEMAS,
    GENERATORS,
    DatasetDescriptor,
    load_catalog_file,
    parse_dataset_arg,
)
from repro.serving.relation import Relation

__all__ = [
    "BUILTIN_SCHEMAS",
    "Catalog",
    "DatasetDescriptor",
    "GENERATORS",
    "Relation",
    "load_catalog_file",
    "open_catalog",
    "open_relation",
    "parse_dataset_arg",
    "persist_relation",
]
